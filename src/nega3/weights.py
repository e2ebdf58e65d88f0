"""Exact minimum weights, counts at a given weight, and full distributions.

Minimum-weight and counting queries run a covering enumeration over several
systematic generator matrices on disjoint column blocks.  A self-dual code
takes two in closed form: its own reduced basis, and the reduced basis of
its dual, which is itself, on the complementary columns (gf3._dual_rows).
Other codes re-echelonize the basis on successive disjoint column blocks.
Messages of support size 1, 2, ... are expanded for each matrix, level by
level and within a level matrix by matrix.  Once matrix i of level j is
done, every unseen codeword has weight at least
sum_{s <= i} max(0, j + 1 - deficit_s) + sum_{s > i} max(0, j - deficit_s),
where deficit_s is the rank the code falls short of full on block s, so the
bound rises after every matrix, not only after every level.  The run stops
as soon as that bound strictly passes the weight counted, which certifies
the answer without visiting all 3^k words.  One scan settles both d and
A_d: it keeps the least weight seen and the number of words of that weight,
and restarts the count whenever the least weight falls (min_weight keeps
both on the code, so count_weight at d reuses the count).  For a self-dual
code of even d = 2j the two matrices give the bound 2j + 1 after the first
matrix of level j, so the second, as costly, is never walked.

The expansion is vectorized and visits each word the covering needs at
most once up to sign:

- Supports come from numpy tables of row combinations, streamed in
  lexicographic order in chunks of at most 65,536 rows.
- Each message's first coefficient is fixed to 1 and the other j - 1 walk
  their sign patterns in Gray-code order, one bit-sliced vector addition
  per pattern, done in place in buffers held per chunk.  A word c stands
  for itself and -c, which shares its weight.
- Counts need no record of words seen.  A word's message support under a
  systematic matrix is its weight on that matrix's pivots, so a word is
  counted only at the first (level, matrix) pair that visits it: the
  matrix, first in order, on whose pivots its weight is least.  With two
  matrices on complementary columns, as for self-dual codes, that pair
  follows from the level and the weight alone.  A batch is searched for
  words of the weight counted only when its least weight reaches it.
- Orbit path: when sigma, the simultaneous negashift of the code's six
  blocks, is an automorphism and every matrix's pivots are whole blocks (as
  for the (I | M) codes of negacirculant blocks), sigma acts on messages as
  the blockwise negashift.  Only supports least among their rotations are
  walked, each weighted by its orbit size.
- Stacks: codes that share n, k, the pivots of every matrix and the orbit
  width share the support tables too, so the walk runs over their bases
  stacked as (codes, k, lanes) planes, one numpy call per step for all of
  them; a single code is a stack of one.  The search settles d and the
  count at d of all the codes of one work unit in one such scan
  (_settle), which runs until the bound passes d and drops a code at its
  first word below d.

Full distributions take a different route, a meet-in-the-middle sweep: the
basis is split in half, all 3^(k - k//2) sums of the second half are
tabulated, and the table is swept once per sum of the first half.  On the
orbit path the first half holds the first block, on whose message digits
sigma acts as the negashift of F_3^b, and the words of first-block message r
have the same histogram as those of its negashift.  So only sums whose
first-block digits are least in their orbit are swept, each histogram scaled
by the orbit size: 63 of the 729 first-block messages at length 36, 411 of
6,561 at length 48.  The table is lane-major, so each sweep works on whole
lanes against one word of the row, into reused buffers.  Counts use 64-bit
integers throughout and are exact.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass, field
from math import comb, gcd
from typing import NamedTuple

import numpy as np

from .errors import GuardError, InternalInconsistencyError
from .gf3 import Code, _dual_rows, _rref_rows
from .nega import _negashift_blocks

_LANE_BITS = 64

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

    def total(self) -> int:
        return sum(self.counts.values())


# -- packing -----------------------------------------------------------------


def _lanes(n: int) -> int:
    return (n + _LANE_BITS - 1) // _LANE_BITS


def _pack(planes: list[int], n: int) -> np.ndarray:
    """Bit planes of length n as rows of 64-bit lanes, least significant
    lane first: shape (len(planes), lanes)."""
    lanes = _lanes(n)
    data = b"".join(x.to_bytes(8 * lanes, "little") for x in planes)
    return np.frombuffer(data, dtype="<u8").reshape(len(planes), lanes)


def _pack_rows(rows, n: int) -> tuple[np.ndarray, np.ndarray]:
    return _pack([r._lo for r in rows], n), _pack([r._hi for r in rows], n)


def _add_planes(alo, ahi, blo, bhi):
    t = (alo | bhi) ^ (ahi | blo)
    return t ^ (ahi | bhi), t ^ (alo | blo)


def _add_into(lo, hi, blo, bhi, scratch) -> None:
    """lo, hi += blo, bhi in place (_add_planes without allocating); scratch
    holds two arrays of their shape."""
    t, u = scratch
    np.bitwise_or(lo, bhi, out=t)
    np.bitwise_or(hi, blo, out=u)
    np.bitwise_xor(t, u, out=t)
    np.bitwise_or(hi, bhi, out=u)
    np.bitwise_or(lo, blo, out=hi)
    np.bitwise_xor(t, hi, out=hi)
    np.bitwise_xor(t, u, out=lo)


def _weights_of(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Weights of the words of planes shaped (..., lanes)."""
    if lo.shape[-1] == 1:
        return np.bitwise_count((lo | hi)[..., 0])
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
    """Systematic bases on disjoint column blocks, kept in the code's cache.
    The first is the code's own reduced basis."""
    cached = code._cache.get("infosets")
    if cached is None:
        cached = code._cache["infosets"] = [
            _InfoSet(*_pack_rows(rows, code.n), deficit, list(pivots),
                     _pack([sum(1 << p for p in pivots)], code.n)[0])
            for rows, pivots, deficit in _systematic_bases(code)]
    return cached


def _systematic_bases(code: Code):
    """(rows, pivots, deficit) of each information set.

    A self-dual code takes two in closed form: the complement of an
    information set of C is one of its dual, here C itself, whose reduced
    basis on those columns is gf3._dual_rows.  Other codes reduce the basis
    again with the columns not yet used scanned first, for as long as that
    finds new pivots."""
    if code.k and code.is_self_dual():
        yield code.basis, code.pivots, 0
        pivots = set(code.pivots)
        yield _dual_rows(code), [c for c in range(code.n) if c not in pivots], 0
        return
    used: set[int] = set()
    reduced, pivots = code.basis, code.pivots
    while True:
        new_pivots = [p for p in pivots if p not in used]
        if not new_pivots:
            return
        yield reduced[: code.k], pivots, code.k - len(new_pivots)
        used.update(new_pivots)
        fresh = [c for c in range(code.n) if c not in used]
        if not fresh:
            return
        reduced, pivots = _rref_rows(code.basis, fresh + sorted(used))


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


def _passes(deficits: list[int], k: int):
    """The covering scan's passes in order, each as (j, i, floor): level
    j = 1 .. k, and within a level the information sets i in order.  floor
    is the least weight of a word that no pass up to this one has visited.

    Such a word's message under set s has support at least j + 1 when set s
    is already done at level j (s <= i), and at least j otherwise.  Its
    support under s is its weight on s's pivots, of which all but deficit_s
    lie in no earlier set, so the word weighs at least
    sum_s max(0, j + [s <= i] - deficit_s): the Brouwer-Zimmermann bound,
    raised after every set rather than every level."""
    for j in range(1, k + 1):
        for i in range(len(deficits)):
            yield j, i, sum(max(0, j + (s <= i) - d) for s, d in enumerate(deficits))


def count_cost(code: Code, w: int) -> int:
    """Codewords the covering certifies when counting weight-w words: the
    C(k, j) 2^j words of message support j of every (level j, set) pass the
    scan walks before its bound passes w (see _passes).

    The scan evaluates fewer: one word of each pair c, -c, and on the orbit
    path one support per negashift orbit."""
    cost = 0
    for j, _, floor in _passes([s.deficit for s in _information_sets(code)], code.k):
        cost += comb(code.k, j) << j
        if floor > w:
            break
    return cost


# -- level scans ---------------------------------------------------------------

_CHUNK = 1 << 16  # most combinations, hence rows per batch, held at once
# most codes scanned in one stack: a few dozen already share out the numpy
# call overhead, and wider stacks would only hold larger batches at once
_STACK = 64


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


def _words(lo: np.ndarray, hi: np.ndarray, j: int, width: int,
           alive: np.ndarray | None = None):
    """The codewords of the messages of support size j of a stack of codes,
    as batches (codes, lo, hi, mult).

    lo and hi hold one systematic basis per code, shaped (codes, k, lanes);
    the codes share their pivots and orbit width, so one support table
    serves them all.  A batch holds the words of a run of at most
    max(1, _CHUNK // codes) supports for the listed stack positions, shaped
    (len(codes), supports, lanes), so at most _CHUNK rows in all when the
    stack holds at most _CHUNK codes.  Each message's first nonzero
    coefficient is fixed to 1, so a batch holds one word of each pair c, -c,
    which share their weight and their pivot weights.  The other j - 1
    coefficients are walked through their 2^(j-1) sign patterns in
    Gray-code order, each step one bit-sliced vector addition in place.
    With a width (see _orbit_width) only supports least among their
    rotations are walked, and mult holds each support's orbit size, the
    number of supports whose words the batch stands for; otherwise mult is
    all ones.  A stack position the caller clears in alive leaves the walk
    at the next batch.

    A batch's planes are buffers that the next step overwrites, so read
    each batch before asking for the next.
    """
    codes = np.arange(lo.shape[0])
    slo, shi = lo, hi
    buf = np.empty(0, dtype=np.uint64)
    for combos, mult in _supports(lo.shape[1], j, width):
        step = max(1, _CHUNK // len(codes))
        for s in range(0, len(combos), step):
            piece = combos[s : s + step]
            # rows 0 .. j-1 of each word's message, low then high planes, and
            # two scratch arrays; row 0 becomes the running word
            shape = (2 * j + 2, len(codes), len(piece), lo.shape[2])
            if buf.shape != shape:
                buf = np.empty(shape, dtype=np.uint64)
            for t in range(j):
                r = piece[:, t].astype(np.intp)  # each column cast once, for both planes
                np.take(slo, r, axis=1, out=buf[t], mode="clip")
                np.take(shi, r, axis=1, out=buf[j + t], mode="clip")
            wlo, whi, scratch = buf[0], buf[j], buf[2 * j :]
            for t in range(1, j):
                _add_into(wlo, whi, buf[t], buf[j + t], scratch)
            for i in range(1 << (j - 1)):
                if i:
                    # flipping pattern bit t - 1 takes coefficient t from 1
                    # to 2 (add the row) or back (add its negation, i.e. the
                    # row with planes swapped)
                    t = (i & -i).bit_length()
                    if ((i ^ (i >> 1)) >> (t - 1)) & 1:
                        _add_into(wlo, whi, buf[t], buf[j + t], scratch)
                    else:
                        _add_into(wlo, whi, buf[j + t], buf[t], scratch)
                if alive is not None and not alive[codes].all():
                    keep = alive[codes]
                    codes = codes[keep]
                    if not len(codes):
                        return
                    slo, shi = lo[codes], hi[codes]
                    buf = buf[:, keep]
                    wlo, whi, scratch = buf[0], buf[j], buf[2 * j :]
                yield codes, wlo, whi, mult[s : s + step]


def min_weight(code: Code, abort_below: int | None = None) -> int:
    """Exact minimum weight, certified by the covering bound.

    With ``abort_below`` set, the scan may return early with any codeword
    weight strictly below the threshold (useful to reject candidates); the
    result is exact whenever it is >= abort_below.  The scan that settles d
    also counts the words of weight d (see _stack_counts), and exact results
    keep both in the code's cache, so later queries of d or of that count
    cost nothing.

    Counting A_d has a price when d alone is wanted: d is certified once
    the bound reaches d, but the count only once it passes d, so the scan
    walks one pass more when the bound lands on d exactly.  For a
    self-dual code of even d = 2j that pass is level j of the first
    matrix, the costliest one walked (about 4 ms to 14 ms of CPU for
    B280).  Every caller in this package follows min_weight with
    count_weight(code, d), and for them one scan is cheaper than two.
    """
    if code.k == 0:
        raise ValueError("minimum weight of the zero code is undefined")
    if "min_weight" not in code._cache:
        scan = _stack_counts([code], code.n, floor=abort_below or 1, least=True)
        if not scan.kept[0]:
            return int(scan.weight[0])
        code._cache["min_weight"] = int(scan.weight[0])
        code._cache["count_at_min"] = int(scan.count[0])
    return code._cache["min_weight"]


def count_weight(code: Code, w: int) -> int:
    """Exact number of codewords of weight w.

    Once min_weight has settled w as the minimum weight, this is the count
    its scan kept.  Otherwise it runs the covering enumeration until its bound strictly
    exceeds w, so every weight-w word is visited (see _stack_counts), or,
    when a straight sweep of all 3^k codewords is cheaper, delegates to
    full_distribution instead (both routes are exact).
    """
    if w < 1:
        raise ValueError("count_weight takes a positive weight")
    if code.k == 0 or w > code.n:
        return 0
    if code._cache.get("min_weight") == w:
        return code._cache["count_at_min"]
    if code.k <= 22 and 3**code.k < count_cost(code, w):
        return full_distribution(code, allow_long=True).counts.get(w, 0)
    return int(_stack_counts([code], w, floor=1).count[0])


def _settle(codes: list[Code], d: int) -> list[int | None]:
    """For each code, the number of its words of weight d when d is its
    minimum weight, else None.

    Codes that share n, k, information-set pivots and orbit width, as read
    off each code, are scanned together in stacks of at most _STACK codes,
    each stack in one pass over the levels (see _stack_counts) that settles
    d and the count at once; a code leaves its stack at its first word
    below d."""
    stacks: dict[tuple, list[int]] = {}
    for i, code in enumerate(codes):
        key = (code.n, code.k, _orbit_width(code),
               tuple(tuple(s.pivots) for s in _information_sets(code)))
        stacks.setdefault(key, []).append(i)
    out: list[int | None] = [None] * len(codes)
    for members in stacks.values():
        for s in range(0, len(members), _STACK):
            part = members[s : s + _STACK]
            scan = _stack_counts([codes[i] for i in part], d, floor=d)
            for i, count, kept in zip(part, scan.count, scan.kept):
                out[i] = int(count) if kept and count else None
    return out


def _clears(code: Code, d: int) -> bool:
    """Whether the code has no nonzero word of weight below d: a scan that
    counts weight d - 1 with floor d, so it leaves at the first lighter word
    and otherwise stops once its bound reaches d."""
    return bool(_stack_counts([code], d - 1, floor=d).kept[0])


class _Scan(NamedTuple):
    """What _stack_counts found, one entry per code of the stack."""

    weight: np.ndarray  # the weight counted, or the first weight below floor
    count: np.ndarray  # words of that weight
    kept: np.ndarray  # False for a code that met a word below floor


def _stack_counts(codes: list[Code], w: int, floor: int, least: bool = False) -> _Scan:
    """The number of weight-w words of each code of a stack, or with least
    set, its least weight up to w and the number of words of that weight.
    A code with a word of weight below floor leaves the stack there, with
    that weight.

    The codes share n, k, information-set pivots and orbit width.  The
    covering scan walks its (level, set) passes in order (see _passes) until
    the bound passes the weight counted, so every word of that weight or
    less is visited; in least mode each code's count restarts whenever its
    least weight falls.  A word is counted only at the first pass that
    visits it: its message support under set i is its weight on set i's
    pivots, so it is counted under the first set on whose pivots its weight
    is least.  Each visited word stands for itself and its negation, and on
    the orbit path for its whole negashift orbit (see _words), so no word is
    kept or compared.
    """
    size = len(codes)
    target = np.full(size, w, dtype=np.int64)
    total = np.zeros(size, dtype=np.int64)
    kept = np.ones(size, dtype=bool)
    if codes[0].k == 0:
        return _Scan(target, total, kept)
    head = _information_sets(codes[0])
    width = _orbit_width(codes[0])
    pivot_masks = np.stack([s.pivot_mask for s in head])
    planes = [(np.stack([_information_sets(c)[i].lo for c in codes]),
               np.stack([_information_sets(c)[i].hi for c in codes])) for i in range(len(head))]
    # two sets whose pivots split the columns, as for self-dual codes: a word
    # of weight w met at level j under set i weighs w - j on the other set's
    # pivots, so set i is the first to meet it exactly when 2j + i <= w
    split = len(head) == 2 and head[1].deficit == 0 and 2 * codes[0].k == codes[0].n
    drops = floor > 1  # no nonzero word weighs less than 1
    for j, i, unseen in _passes([s.deficit for s in head], codes[0].k):
        lo, hi = planes[i]
        for stack, wlo, whi, mult in _words(lo, hi, j, width, kept if drops else None):
            batch = _weights_of(wlo, whi)
            low = batch.min(axis=1)
            if drops:
                out = low < floor
                if out.any():
                    target[stack[out]], kept[stack[out]] = low[out], False
            if least:
                fell = low < target[stack]
                if fell.any():
                    target[stack[fell]], total[stack[fell]] = low[fell], 0
            if not (low <= target[stack]).any():
                continue
            c, r = np.divmod(np.flatnonzero(batch == target[stack][:, None]), batch.shape[1])
            if split:
                first = 2 * j + i <= target[stack[c]]
            else:
                words = wlo[c, r] | whi[c, r]
                on_pivots = np.bitwise_count(words[:, None, :] & pivot_masks).sum(axis=-1)
                first = on_pivots.argmin(axis=1) == i
            np.add.at(total, stack[c[first]], mult[r[first]])
        if not kept.any() or unseen > target[kept].max():
            break
    return _Scan(target, 2 * total, kept)


def full_distribution(code: Code, allow_long: bool = False) -> WeightProfile:
    """The complete weight distribution, exact, over all 3^k codewords.

    The basis is split in half: all 3^(k - k//2) sums of the second half are
    tabulated, and the table is swept once per sum of the first half, each
    sweep a few whole-lane operations and one bincount (see _sweep).  On the
    orbit path (see _orbit_width) sigma maps the words whose first-block
    message is r onto those whose first-block message is the negashift of
    r, so only sums of the first half whose first-block digits are least in
    their negashift orbit are swept, and each bincount is scaled by that
    orbit's size; on other codes every sum is swept once.
    """
    if code.k == 0:
        return WeightProfile(code.n, {0: 1}, complete=True)
    half = code.k // 2
    width = _orbit_width(code)
    if width > half:  # the first half must hold the whole first block
        width = 0
    _full_distribution_guard(code.k, width, allow_long)
    lo_a, hi_a = _span_planes(code.basis[:half], code.n)
    lo_b, hi_b = (np.ascontiguousarray(p.T) for p in _span_planes(code.basis[half:], code.n))
    # row i of the first table has first-block digits i mod 3^width
    mult = np.resize(_negashift_orbit_sizes(width), lo_a.shape[0])
    counts = _sweep(lo_a, hi_a, lo_b, hi_b, mult, code.n)
    profile = WeightProfile(
        code.n,
        {w: int(c) for w, c in enumerate(counts) if c},
        complete=True,
    )
    if profile.total() != 3**code.k:
        raise InternalInconsistencyError("distribution total is not 3^k")
    return profile


def _sweep(lo_a, hi_a, lo_b, hi_b, mult: np.ndarray, n: int) -> np.ndarray:
    """The weight histogram of the sums a + b, for a a row of the first
    table, shaped (rows, lanes), and b a column of the lane-major second
    table, shaped (lanes, columns); row i's histogram counts mult[i] times,
    and rows of mult 0 are skipped.

    Only weights are needed, and a + b is zero exactly where b = -a, that
    is where b's low plane equals a's high plane and b's high plane a's low
    one.  So each lane of a sum's support is two XORs and an OR against
    one lane of the row, a scalar, into buffers reused for every row."""
    columns = lo_b.shape[1]
    t = np.empty(columns, dtype=np.uint64)
    u = np.empty(columns, dtype=np.uint64)
    ones = np.empty(columns, dtype=np.uint8)
    weight = ones if lo_b.shape[0] == 1 else np.empty(columns, dtype=np.int64)
    counts = np.zeros(n + 1, dtype=np.int64)
    for i in np.flatnonzero(mult):
        for lane in range(lo_b.shape[0]):
            np.bitwise_xor(lo_b[lane], hi_a[i, lane], out=t)
            np.bitwise_xor(hi_b[lane], lo_a[i, lane], out=u)
            np.bitwise_or(t, u, out=t)
            np.bitwise_count(t, out=ones)
            if weight is not ones:
                if lane:
                    np.add(weight, ones, out=weight)
                else:
                    weight[:] = ones
        counts += mult[i] * np.bincount(weight, minlength=n + 1)
    return counts


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
