"""Exact minimum weights, counts at a given weight, and full distributions.

Minimum-weight and counting queries run a covering enumeration over several
systematic generator matrices.  The basis is re-echelonized on successive
disjoint column blocks; messages of support size 1, 2, ... are expanded for
each matrix, and once level j is complete every unseen codeword has weight
at least sum_i max(0, j + 1 - deficit_i), where deficit_i is the rank the
code falls short of full on block i.  The run stops when that bound meets
the best weight seen (for minima) or strictly passes the queried weight
(for counts), which certifies the answer without visiting all 3^k words.

The expansion is vectorized and visits each word the covering needs at
most once up to sign:

- Supports come from numpy tables of row combinations, streamed in
  lexicographic order in chunks of at most 65,536 rows.
- Each message's first coefficient is fixed to 1 and the other j - 1 walk
  their sign patterns in Gray-code order, one bit-sliced vector addition
  per pattern.  A word c stands for itself and -c, which shares its weight.
- Counts need no record of words seen.  A word's message support under a
  systematic matrix is its weight on that matrix's pivots, so a word is
  counted only at the first (level, matrix) pair that visits it: the
  matrix, first in order, on whose pivots its weight is least.
- Orbit path: when sigma, the simultaneous negashift of the code's six
  blocks, is an automorphism and every matrix's pivots are whole blocks (as
  for the (I | M) codes of negacirculant blocks), sigma acts on messages as
  the blockwise negashift.  Only supports least among their rotations are
  walked, each weighted by its orbit size.

Full distributions take a different route, a meet-in-the-middle sweep: the
basis is split in half, all 3^(k - k//2) sums of the second half are
tabulated, and the table is swept once per sum of the first half.  On the
orbit path the first half holds the first block, on whose message digits
sigma acts as the negashift of F_3^b, and the words of first-block message r
have the same histogram as those of its negashift.  So only sums whose
first-block digits are least in their orbit are swept, each histogram scaled
by the orbit size: 63 of the 729 first-block messages at length 36, 411 of
6,561 at length 48.  Counts use 64-bit integers throughout and are exact.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass, field
from math import comb, gcd

import numpy as np

from .errors import GuardError, InternalInconsistencyError
from .gf3 import Code, _rref_rows
from .nega import _negashift_blocks

_LANE_BITS = 64
_MASK64 = (1 << 64) - 1

# full_distribution throughput on the generic path, in codewords per second,
# used only for guard messages: the 3^18 words of a column-permuted copy of
# the length-36 code C1 take 2.8-3.1 s on one core of a 2-vCPU Xeon VM
# (1.26e8-1.39e8 words/s); the orbit path evaluates fewer words
_EVALS_PER_SECOND = 1.3e8

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


def _split_lanes(x: int, num_lanes: int) -> list[int]:
    return [(x >> (_LANE_BITS * lane)) & _MASK64 for lane in range(num_lanes)]


def _pack_rows(rows, n: int) -> tuple[np.ndarray, np.ndarray]:
    num_lanes = _lanes(n)
    lo = np.array([_split_lanes(r._lo, num_lanes) for r in rows], dtype=np.uint64)
    hi = np.array([_split_lanes(r._hi, num_lanes) for r in rows], dtype=np.uint64)
    return lo.reshape(len(rows), num_lanes), hi.reshape(len(rows), num_lanes)


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
    pivots: list[int]  # pivot column of each row
    pivot_mask: np.ndarray  # (lanes,) the pivot columns as bits


def _information_sets(code: Code) -> list[_InfoSet]:
    """Systematic bases on greedily chosen disjoint column blocks."""
    cached = code._cache.get("infosets")
    if cached is not None:
        return cached
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
        mask = np.array(_split_lanes(sum(1 << p for p in pivots), _lanes(code.n)), dtype=np.uint64)
        sets.append(_InfoSet(lo, hi, code.k - len(new_pivots), pivots, mask))
        used.update(new_pivots)
    code._cache["infosets"] = sets
    return sets


def _orbit_shape(n: int, k: int) -> int:
    """The block width b = n/6 of an [n, k] code that may take the orbit
    path (see _orbit_width), or 0 when its shape rules it out: n not a
    multiple of 6, b < 2, or k > 64, since supports are held as 64-bit
    masks."""
    b = n // 6
    return 0 if n % 6 or b < 2 or k > 64 else b


def _orbit_width(code: Code) -> int:
    """Block width b = n/6 when the scan may visit one support per orbit of
    sigma, the simultaneous negashift of the code's six width-b blocks;
    0 when it may not.  Kept in the code's cache.

    Past the shape test (_orbit_shape) that takes two things.  Sigma must be
    an automorphism of the code, and every information set's pivots must be
    whole width-b blocks, each in column order.  Then sigma maps the word of
    message m to the word of the blockwise negashift of m, and keeps both
    its weight and its weight on every set's pivots.  The first set is the
    code's own reduced basis, so sigma is an automorphism exactly when it
    maps each basis row to plus or minus the row whose pivot is the rotated
    pivot.  The self-dual (I | M) codes of negacirculant blocks pass: sigma
    is an automorphism of every (I | M) code, and their information sets are
    the two halves.
    """
    if "orbit_width" not in code._cache:
        code._cache["orbit_width"] = _uncached_orbit_width(code)
    return code._cache["orbit_width"]


def _uncached_orbit_width(code: Code) -> int:
    b = _orbit_shape(code.n, code.k)
    if not b:
        return 0
    if not all(_whole_blocks(s.pivots, b) for s in _information_sets(code)):
        return 0
    rows = code.basis
    for i, r in enumerate(rows):
        image = _negashift_blocks(r, b)
        target = rows[i - i % b + (i + 1) % b]
        if image != target and image != -target:
            return 0
    return b


def _whole_blocks(pivots: list[int], b: int) -> bool:
    """Whether the pivots are whole width-b blocks, each in column order."""
    return len(pivots) % b == 0 and all(
        p % b == 0 and pivots[i : i + b] == list(range(p, p + b))
        for i, p in zip(range(0, len(pivots), b), pivots[::b]))


def covering_lower_bound(level: int, deficits: list[int]) -> int:
    """Certified weight floor for codewords missed by all expansions of
    message support size <= level."""
    return sum(max(0, level + 1 - d) for d in deficits)


def enumeration_cost(k: int, level: int) -> int:
    """Codewords one systematic matrix certifies through the level: the
    C(k, j) 2^j words of message support j, summed over j <= level.

    The scan evaluates fewer: one word of each pair c, -c, and on the orbit
    path one support per negashift orbit."""
    return sum(comb(k, j) * (1 << j) for j in range(1, min(level, k) + 1))


def levels_needed_for_count(code: Code, w: int) -> int:
    """Smallest expansion level whose covering bound strictly exceeds w."""
    deficits = [s.deficit for s in _information_sets(code)]
    for j in range(1, code.k + 1):
        if covering_lower_bound(j, deficits) > w:
            return j
    return code.k


def count_cost(code: Code, w: int) -> int:
    """Codewords the covering certifies when counting weight-w words (see
    enumeration_cost); the scan evaluates fewer."""
    sets = _information_sets(code)
    level = levels_needed_for_count(code, w)
    return len(sets) * enumeration_cost(code.k, level)


# -- level scans ---------------------------------------------------------------

_CHUNK = 1 << 16  # most combinations, hence rows per batch, held at once


class _Abort(Exception):
    def __init__(self, weight: int):
        self.weight = weight


def _lex_table(m: int, j: int) -> np.ndarray:
    """All j-subsets of range(m) in lexicographic order, one per row."""
    # the subsets with first element a are a followed by the last
    # C(m - 1 - a, j - 1) rows of the (j - 1)-subsets of range(m - 1), plus 1;
    # so the table grows from the 0-subsets of range(m - j) one column at a
    # time, and no intermediate table is larger than the result
    table = np.zeros((1, 0), dtype=np.intp)
    for t in range(1, j + 1):
        span = m - j + t  # the table holds the (t - 1)-subsets of range(span - 1)
        size = len(table)
        counts = [comb(span - 1 - a, t - 1) for a in range(span - t + 1)]
        rows = np.concatenate([np.arange(size - c, size) for c in counts])
        first = np.repeat(np.arange(len(counts)), counts)
        table = np.column_stack([first, table[rows] + 1])
    return table


def _lex_pieces(k: int, j: int, start: int, limit: int):
    """Consecutive runs, of at most limit rows each, of the lexicographic
    j-subsets of range(start, k)."""
    if comb(k - start, j) <= limit:
        yield _lex_table(k - start, j) + start
        return
    for a in range(start, k - j + 1):
        for piece in _lex_pieces(k, j - 1, a + 1, limit):
            yield np.column_stack([np.full(len(piece), a), piece])


def _combo_chunks(k: int, j: int, chunk: int = _CHUNK):
    """The j-subsets of range(k) in itertools.combinations order, as index
    arrays of at most chunk rows; the whole table is never built."""
    pending: list[np.ndarray] = []
    size = 0
    for piece in _lex_pieces(k, j, 0, chunk):
        pending.append(piece)
        size += len(piece)
        if size >= chunk:
            block = np.concatenate(pending)
            whole = size - size % chunk
            for s in range(0, whole, chunk):
                yield block[s : s + chunk]
            pending, size = [block[whole:]], size - whole
    if size:
        yield np.concatenate(pending)


def _orbit_reps(combos: np.ndarray, k: int, width: int) -> tuple[np.ndarray, np.ndarray]:
    """The rows of combos whose support, as a bit mask, is least among its
    rotations within each width-wide block, with the size of each one's
    rotation orbit."""
    masks = np.bitwise_or.reduce(np.uint64(1) << combos.astype(np.uint64), axis=1)
    top = np.uint64(sum(1 << (g * width + width - 1) for g in range(k // width)))
    rest = ~top
    one, wrap = np.uint64(1), np.uint64(width - 1)
    rot = masks
    least = np.ones(len(masks), dtype=bool)
    size = np.full(len(masks), width, dtype=np.uint8)
    for r in range(1, width):
        rot = ((rot & rest) << one) | ((rot & top) >> wrap)
        least &= masks <= rot
        size[(rot == masks) & (size == width)] = r
    return combos[least], size[least]


def _supports(k: int, j: int, width: int):
    """The j-subsets of range(k) that _words walks, as chunks (combos, mult).

    Tables that keep at most about one chunk of rows are cached: all codes
    of one length share them, and building a table costs more than walking
    it once.  Larger ones are streamed."""
    if comb(k, j) <= _CHUNK * max(width, 1):
        return _cached_supports(k, j, width)
    return _support_chunks(k, j, width)


@functools.lru_cache(maxsize=32)
def _cached_supports(k: int, j: int, width: int) -> tuple:
    chunks = tuple((combos.astype(np.min_scalar_type(k)), mult)
                   for combos, mult in _support_chunks(k, j, width))
    for combos, mult in chunks:  # shared by every later caller
        combos.flags.writeable = mult.flags.writeable = False
    return chunks


def _support_chunks(k: int, j: int, width: int):
    for combos in _combo_chunks(k, j):
        if not width:
            yield combos, np.ones(len(combos), dtype=np.uint8)
            continue
        combos, mult = _orbit_reps(combos, k, width)
        if len(combos):
            yield combos, mult


def _words(iset: _InfoSet, j: int, width: int):
    """The codewords of the messages of support size j, as batches
    (lo, hi, mult).

    Each message's first nonzero coefficient is fixed to 1, so a batch holds
    one word of each pair c, -c, which share their weight and their pivot
    weights.  The other j - 1 coefficients are walked through their 2^(j-1)
    sign patterns in Gray-code order, each step one bit-sliced vector
    addition.  With a width (see _orbit_width) only supports least among
    their rotations are walked, and mult holds each support's orbit size,
    the number of supports whose words the batch stands for; otherwise
    mult is all ones.
    """
    for combos, mult in _supports(iset.lo.shape[0], j, width):
        glo = [iset.lo[combos[:, t]] for t in range(j)]
        ghi = [iset.hi[combos[:, t]] for t in range(j)]
        lo, hi = glo[0], ghi[0]
        for t in range(1, j):
            lo, hi = _add_planes(lo, hi, glo[t], ghi[t])
        yield lo, hi, mult
        # flipping pattern bit t - 1 takes coefficient t from 1 to 2 (add the
        # row) or back (add its negation, i.e. the row with planes swapped)
        for i in range(1, 1 << (j - 1)):
            t = (i & -i).bit_length()
            if ((i ^ (i >> 1)) >> (t - 1)) & 1:
                lo, hi = _add_planes(lo, hi, glo[t], ghi[t])
            else:
                lo, hi = _add_planes(lo, hi, ghi[t], glo[t])
            yield lo, hi, mult


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
    width = _orbit_width(code)
    deficits = [s.deficit for s in sets]
    best = code.n + 1
    for j in range(1, code.k + 1):
        for s in sets:
            for lo, hi, _ in _words(s, j, width):
                w = int(_weights_of(lo, hi).min())
                if w < best:
                    best = w
                    if abort_below is not None and w < abort_below:
                        raise _Abort(w)
        if covering_lower_bound(j, deficits) >= best:
            return best
    return best  # every message enumerated


def count_weight(code: Code, w: int) -> int:
    """Exact number of codewords of weight w.

    Runs the covering enumeration until its bound strictly exceeds w, so
    every weight-w word is visited.  A word is counted only at the first
    (level, information set) pair that visits it: its message support under
    set i is its weight on set i's pivots, so it is counted under the first
    set on whose pivots its weight is least.  Each visited word stands for
    itself and its negation, and on the orbit path for its whole negashift
    orbit (see _words), so no word is kept or compared.  When a straight
    sweep of all 3^k codewords is cheaper, delegates to full_distribution
    instead (both routes are exact).
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
    width = _orbit_width(code)
    pivot_masks = np.stack([s.pivot_mask for s in sets])
    total = 0
    for j in range(1, level + 1):
        for i, s in enumerate(sets):
            for lo, hi, mult in _words(s, j, width):
                hit = np.flatnonzero(_weights_of(lo, hi) == w)
                if hit.size:
                    on_pivots = (lo[hit] | hi[hit])[:, None, :] & pivot_masks
                    first = np.bitwise_count(on_pivots).sum(axis=-1).argmin(axis=1) == i
                    total += int(mult[hit[first]].sum())
    return 2 * total


def full_distribution(code: Code, allow_long: bool = False) -> WeightProfile:
    """The complete weight distribution, exact, over all 3^k codewords.

    The basis is split in half: all 3^(k - k//2) sums of the second half are
    tabulated, and the table is swept once per sum of the first half, each
    sweep one vector addition and one bincount.  On the orbit path (see
    _orbit_width) sigma maps the words whose first-block message is r onto
    those whose first-block message is the negashift of r, so only sums of
    the first half whose first-block digits are least in their negashift
    orbit are swept, and each bincount is scaled by that orbit's size; on
    other codes every sum is swept once.
    """
    if code.k == 0:
        return WeightProfile(code.n, {0: 1}, complete=True)
    half = code.k // 2
    width = _orbit_width(code)
    if width > half:  # the first half must hold the whole first block
        width = 0
    _full_distribution_guard(code.k, width, allow_long)
    lo_a, hi_a = _span_planes(code.basis[:half], code.n)
    lo_b, hi_b = _span_planes(code.basis[half:], code.n)
    # row i of the first table has first-block digits i mod 3^width
    mult = np.resize(_negashift_orbit_sizes(width), lo_a.shape[0])
    counts = np.zeros(code.n + 1, dtype=np.int64)
    for i in np.flatnonzero(mult):
        lo, hi = _add_planes(lo_a[i], hi_a[i], lo_b, hi_b)
        counts += mult[i] * np.bincount(_weights_of(lo, hi), minlength=code.n + 1)
    profile = WeightProfile(
        code.n,
        {w: int(c) for w, c in enumerate(counts) if c},
        complete=True,
    )
    if profile.total() != 3**code.k:
        raise InternalInconsistencyError("distribution total is not 3^k")
    return profile


def _negashift_orbit_sizes(b: int) -> np.ndarray:
    """For each x in F_3^b, indexed by sum_t x_t 3^t: the size of its orbit
    under the negashift (x_0, ..., x_{b-1}) -> (-x_{b-1}, x_0, ..., x_{b-2})
    when its index is the least in that orbit, else 0.  The sizes sum to 3^b."""
    index = np.arange(3**b, dtype=np.int64)
    least = np.ones(3**b, dtype=bool)
    period = max(2 * b, 1)  # the negashift has order 2b
    size = np.full(3**b, period, dtype=np.int64)
    image = index
    for r in range(1, period):
        top = image // 3 ** (b - 1)
        image = image % 3 ** (b - 1) * 3 + (-top) % 3
        least &= index <= image
        size[(image == index) & (size == period)] = r
    return np.where(least, size, 0)


def _negashift_orbit_count(b: int) -> int:
    """The number of nonzero entries of _negashift_orbit_sizes(b), by
    Burnside without the 3^b table: the r-fold negashift fixes 3^gcd(r, b)
    messages when r / gcd(r, b), its wraps round each cycle, is even, else 1."""
    fixed = (3 ** gcd(r, b) if r // gcd(r, b) % 2 == 0 else 1 for r in range(2 * b))
    return sum(fixed) // (2 * b)


def _full_distribution_guard(k: int, width: int, allow_long: bool) -> None:
    """Refuse a full distribution of a dimension-k code past the guard.

    The message prices the sweep full_distribution would run: with an orbit
    width b (see _orbit_width) one first-block message per negashift orbit
    times the 3^(k - b) other messages, else all 3^k words."""
    if k <= FULL_DISTRIBUTION_GUARD_K or allow_long:
        return
    if width:
        reps = _negashift_orbit_count(width)
        words = reps * 3 ** (k - width)
        sweep = f"{reps} x 3^{k - width} = {words:.2e} of its 3^{k} codewords"
    else:
        words = 3**k
        sweep = f"3^{k} = {words:.2e} codewords"
    raise GuardError(
        f"full distribution of a dimension-{k} code sweeps {sweep} "
        f"(roughly {words / _EVALS_PER_SECOND:.0f}s); "
        "pass allow_long=True (CLI: --allow-long) to run it",
        estimate=words,
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
