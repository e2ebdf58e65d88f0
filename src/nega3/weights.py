"""Exact minimum weights, counts at a given weight, and full distributions.

Minimum-weight and counting queries on a self-dual code run a covering
enumeration over two systematic generator matrices on complementary
columns.  Both come in closed form: with its columns reordered pivots
first, which keeps every weight, a self-dual code is (I | A) with
A A^T = -I, so (-A^T | I) spans it too (_tile_stack).  Messages of support
size 1, 2, ... are expanded for each matrix, level by level and within a
level matrix by matrix.  Once matrix i of level j is done, every unseen
codeword has weight at least 2j + i + 1: at least j + 1 on the pivots of
each matrix done at level j and j on the other's, so the bound rises after
every matrix, not only after every level.  The run stops as soon as that
bound strictly passes the weight counted, which certifies the answer
without visiting all 3^k words.  One scan settles both d and A_d: it keeps
the least weight seen and the number of words of that weight, and restarts
the count whenever the least weight falls (min_weight keeps both on the
code, so count_weight at d reuses the count).  For an even d = 2j the bound
reaches 2j + 1 after the first matrix of level j, so the second, as costly,
is never walked.  A code that is not self-dual is answered from its full
distribution, under that sweep's guard.

The expansion is vectorized and visits each word the covering needs at
most once up to sign:

- Supports are unranked from their lexicographic ranks (_unrank) in
  chunks of at most 65,536 rows, so no larger table is built.  A batch
  holds the words of at most 65,536 supports for one code, and at most
  8,192 shared out among the codes still in a larger stack.
- Each message's first coefficient is fixed to 1.  The last t = min(2,
  j - 1) rows of each support give its tail sums up to sign: b, or a + b
  and a - b.  The first j - t coefficients walk their sign patterns in
  Gray-code order into a head h, one bit-sliced addition in place per
  pattern.  From level 3 on, the tail sums and the head's first pair are
  read from a table of a + b and a - b for every pair of basis rows, built
  once per pass, so up to level 4 no word is added at all.  Only weights
  are needed, and the support of h + s or h - s takes three bitwise
  operations (_sum_support), so each pattern yields the supports of its
  2^t words against the tail sums, and no word is ever built.  A word c
  stands for itself and -c, which shares its weight.
- Counts need no record of words seen.  A word's message support under a
  systematic matrix is its weight on that matrix's pivots, so a word is
  counted only at the first (level, matrix) pair that visits it: the
  matrix, first in order, on whose pivots its weight is least.  The two
  pivot sets are complementary, so that pair follows from the level and
  the weight alone.  A batch is searched for words of the weight counted
  only when its least weight reaches it.
- Orbit path: sigma, the simultaneous negashift of the six blocks, is an
  automorphism of every (I | M) code of negacirculant blocks, and the two
  matrices of a self-dual one have whole blocks as pivots, so sigma acts on
  messages as the blockwise negashift.  Only supports least among their
  rotations are walked, each weighted by its orbit size.  The orbit width
  comes from construction: nega.build_generator records it, the search
  passes it, and every other code, hand-built copies of (I | M) codes
  included, is scanned without orbits.
- Stacks: self-dual codes that share k and the orbit width share the
  support tables too, so the walk runs over their bases stacked as
  (codes, k, lanes) planes, one numpy call per step for all of them.  One
  closed form, _tile_stack, stacks the M of self-dual (I | M) codes: the
  search's specs, a sweep's neighbors and, its columns reordered pivots
  first, every self-dual Code (_code_stack, a stack of one).  _settle
  settles d and the count at d of a stack in one scan, which runs until
  the bound passes d and drops a code at its first word below d; the walk
  sheds it at the start of its next run of supports.

Full distributions take a different route, a meet-in-the-middle sweep: the
basis is split in half, all 3^(k - k//2) sums of the second half are
tabulated, and the table is swept once per sum of the first half.  On the
orbit path the first half holds the first block, on whose message digits
sigma acts as the negashift of F_3^b, and the words of first-block message r
have the same histogram as those of its negashift.  So only sums whose
first-block digits are least in their orbit are swept, each histogram scaled
by the orbit size: 63 of the 729 first-block messages at length 36, 411 of
6,561 at length 48.  The table is lane-major, so each sweep works on whole
lanes against one word of the row, into reused buffers.  Swept rows of
equal orbit size go in pairs: the two rows' weights of each column are
packed into one index, and one bincount over (n + 1)^2 bins gives both
histograms as its marginals, so the histograms take about one bincount per
two rows.  Counts use 64-bit integers throughout and are exact.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass, field
from math import comb, gcd
from typing import NamedTuple

import numpy as np

from .errors import GuardError, InternalInconsistencyError
from .gf3 import Code

# full_distribution throughput on the generic path, in codewords per second,
# used only for guard messages: the 3^18 words of a column-permuted copy of
# the length-36 code C1 take 1.37-1.58 CPU-s on one core of a 2-vCPU Xeon VM
# (2.5e8-2.8e8 words/s over ten runs in two processes); the orbit
# path evaluates fewer words
_EVALS_PER_SECOND = 2.6e8

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
    """The weight distribution of one code: ``counts`` maps each weight to
    the exact number of codewords of that weight."""

    n: int
    counts: dict[int, int] = field(default_factory=dict)


# -- bit-plane arithmetic -----------------------------------------------------


def _planes(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The two bit planes of integer rows (..., n) over {0, 1, 2}, each as
    64-bit lanes (..., lanes), at least one, least significant lane first:
    bit i of lane t of the first plane is set where entry 64 t + i is 1,
    of the second where it is 2.  Only this module packs rows as planes."""
    n = rows.shape[-1]
    out = np.zeros((2, *rows.shape[:-1], 8 * max(1, -(-n // 64))), dtype=np.uint8)
    for plane, value in zip(out, (1, 2)):
        plane[..., : -(-n // 8)] = np.packbits(rows == value, axis=-1, bitorder="little")
    lo, hi = out.view("<u8")
    return lo, hi


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


def _sum_support(alo, ahi, blo, bhi, out, scratch):
    """The support of a + b, into out, with scratch of its shape.

    a + b is zero exactly where b = -a, that is where b's low plane equals
    a's high plane and b's high plane a's low one, so its support is
    (a_lo ^ b_hi) | (a_hi ^ b_lo).  With b's planes passed swapped, which
    negates b, it is the support of a - b."""
    np.bitwise_xor(alo, bhi, out=out)
    np.bitwise_xor(ahi, blo, out=scratch)
    return np.bitwise_or(out, scratch, out=out)


def _weights_of(support: np.ndarray) -> np.ndarray:
    """Weights of the words whose supports are the planes shaped (..., lanes)."""
    if support.shape[-1] == 1:
        return np.bitwise_count(support[..., 0])
    return np.bitwise_count(support).sum(axis=-1, dtype=np.int64)


# -- the covering bound -------------------------------------------------------


def _orbit_shape(n: int, k: int) -> int:
    """The block width b = n/6 that nega.build_generator records as the
    orbit width of its [n, k] (I | M) codes, or 0 when the shape rules the
    orbit path out: n not a multiple of 6, b < 2, or k > 64, since supports
    are held as 64-bit masks.  On a self-dual one, sigma, the simultaneous
    negashift of the six width-b blocks, is an automorphism and both sets'
    pivots are whole blocks, so sigma maps the word of message m to that of
    the blockwise negashift of m, keeping its weight on every set's pivots."""
    b = n // 6
    return 0 if n % 6 or b < 2 or k > 64 else b


def _passes(k: int):
    """The covering scan's passes in order, each as (j, i, floor): level
    j = 1 .. k, and within a level the information sets i = 0, 1, (I | A)
    then (-A^T | I).  floor is the least weight of a word that no pass up to
    this one has visited.

    Such a word's message under set s has support at least j + 1 when set s
    is already done at level j (s <= i), and at least j otherwise.  Its
    support under s is its weight on s's pivots, and the two pivot sets
    are complementary, so the word weighs at least (j + 1) + j + i: the
    Brouwer-Zimmermann bound, raised after every set rather than every
    level."""
    for j in range(1, k + 1):
        for i in (0, 1):
            yield j, i, 2 * j + i + 1


def count_cost(code: Code, w: int) -> int:
    """Codewords certified when counting weight-w words: for a self-dual
    code, the C(k, j) 2^j words of message support j of every (level j,
    set) pass the covering scan walks before its bound passes w (see
    _passes); for any other code, the 3^k words full_distribution sweeps.

    The scan evaluates fewer: one word of each pair c, -c, and on the orbit
    path one support per negashift orbit."""
    if not code.is_self_dual():
        return 3**code.k
    cost = 0
    for j, _, floor in _passes(code.k):
        cost += comb(code.k, j) << j
        if floor > w:
            break
    return cost


# -- level scans ---------------------------------------------------------------

_CHUNK = 1 << 16  # most combinations, hence supports per batch, held at once
# most codes scanned in one stack: a few dozen already share out the numpy
# call overhead, and wider stacks would only hold larger batches at once
_STACK = 64
# most supports per batch of a stack of more than one code: they are split
# among the codes still in the stack, and at this size they still share out
# the numpy call overhead, while the buffer of 2j + 5 planes (four for the
# batch's words) stays near a megabyte for one-lane words up to j = 6
# (_settle over 64 neighbors of a length-36 code held 1.56 MB at most at
# once, 0.4 MB of it the pair table of _pair_sums, against 10 MB with
# batches of _CHUNK supports)
_STACK_ROWS = 1 << 13


def _unrank(k: int, j: int, ranks: np.ndarray) -> np.ndarray:
    """The j-subsets of range(k) of lexicographic ranks `ranks`, one per row,
    as np.min_scalar_type(k): lex rank r is colex rank C(k, j) - 1 - r of
    the image under x -> k - 1 - x, which unranks greedily, its largest
    element first (Buckles and Lybanon, ACM TOMS 3, 1977)."""
    total = comb(k, j)
    rest = total - 1 - ranks
    rows = np.empty((len(ranks), j), dtype=np.min_scalar_type(k))
    for t in range(j, 0, -1):
        # clipped at C(k, j), above every rank, so that it fits in int64
        binom = np.array([min(comb(c, t), total) for c in range(k)], dtype=np.int64)
        c = binom.searchsorted(rest, side="right") - 1
        rest -= binom[c]
        rows[:, j - t] = k - 1 - c
    return rows


def _combo_chunks(k: int, j: int, chunk: int = _CHUNK):
    """The j-subsets of range(k) in itertools.combinations order, as index
    arrays of at most chunk rows, each unranked from its run of ranks."""
    total = comb(k, j)
    for start in range(0, total, chunk):
        yield _unrank(k, j, np.arange(start, min(start + chunk, total), dtype=np.int64))


def _orbit_reps(combos: np.ndarray, k: int, width: int) -> tuple[np.ndarray, np.ndarray]:
    """The rows of combos whose support, as a bit mask, is least among its
    rotations within each width-wide block, with the size of each one's
    rotation orbit."""
    masks = np.zeros(len(combos), dtype=np.uint64)
    for column in combos.T:  # one column at a time: no (rows, j) masks at once
        masks |= np.uint64(1) << column.astype(np.uint64)
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
    """The j-subsets of range(k) that _words walks: the chunks of
    _combo_chunks, cut to orbit representatives given a width, as (combos,
    mult, pairs), pairs from j = 3 on as _pair_index gives them, else None.

    Tables that keep at most about one chunk of rows are cached: all codes
    of one length share them, and building a table costs more than walking
    it once.  Larger ones are streamed."""
    if comb(k, j) <= _CHUNK * max(width, 1):
        return _cached_supports(k, j, width)
    return _support_chunks(k, j, width)


@functools.lru_cache(maxsize=32)
def _cached_supports(k: int, j: int, width: int) -> tuple:
    chunks = tuple(_support_chunks(k, j, width))
    for combos, mult, pairs in chunks:  # shared by every later caller
        combos.flags.writeable = mult.flags.writeable = False
        if pairs is not None:
            pairs.flags.writeable = False
    return chunks


def _support_chunks(k: int, j: int, width: int):
    for combos in _combo_chunks(k, j):
        if width:
            combos, mult = _orbit_reps(combos, k, width)
        else:
            mult = np.ones(len(combos), dtype=np.uint8)
        if len(combos):
            yield combos, mult, _pair_index(k, combos) if j > 2 else None


def _pair_sums(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """The planes of a + b and a - b, low then high, for every pair of rows
    a < b of a stack (codes, k, lanes), as (4, codes, C(k, 2), lanes), the
    pairs in lexicographic order.  Built in place with one scratch plane:
    with X = a_lo | b_hi, Y = a_hi | b_lo, Z = a_hi | b_hi, W = a_lo | b_lo
    and T their XOR, _add_planes gives a + b = (T ^ W, T ^ Z), and with b's
    planes swapped a - b = (T ^ X, T ^ Y)."""
    a, b = _pair_rows(lo.shape[1])
    table = np.empty((4, lo.shape[0], len(a), lo.shape[2]), dtype=np.uint64)
    plo, phi, mlo, mhi = table
    for src, rows, out in ((lo, a, plo), (hi, b, phi), (lo, b, mlo), (hi, a, mhi)):
        np.take(src, rows, axis=1, out=out, mode="clip")
    x = plo | phi
    np.bitwise_or(mhi, phi, out=phi)  # Z
    np.bitwise_or(plo, mlo, out=plo)  # W
    np.bitwise_or(mhi, mlo, out=mhi)  # Y
    np.bitwise_xor(x, mhi, out=mlo)
    mlo ^= phi
    mlo ^= plo  # T
    for plane in (plo, phi, mhi):
        plane ^= mlo
    mlo ^= x
    return table


@functools.lru_cache(maxsize=32)
def _pair_rows(k: int) -> tuple[np.ndarray, np.ndarray]:
    """The rows a < b of every pair of k rows in lexicographic order, the
    order of _pair_sums: (a, b) is number a k - a (a + 1) / 2 + b - a - 1."""
    rows = np.triu_indices(k, 1)
    for r in rows:  # shared by every later caller
        r.flags.writeable = False
    return rows


def _pair_index(k: int, combos: np.ndarray) -> np.ndarray:
    """The _pair_rows number of each subset's first two rows, then of its
    last two, as (2, subsets)."""
    a, b = combos[:, [0, -2]].T.astype(np.intp), combos[:, [1, -1]].T
    return (a * (2 * k - a - 1) // 2 + b - a - 1).astype(np.min_scalar_type(comb(k, 2)))


def _words(lo: np.ndarray, hi: np.ndarray, j: int, width: int,
           alive: np.ndarray | None = None):
    """The supports of the codewords of the messages of support size j of a
    stack of codes, as batches (codes, support, mult).

    lo and hi hold one systematic basis per code, shaped (codes, k, lanes);
    the codes share their pivots and orbit width, so one support table
    serves them all.  Each message's first nonzero coefficient is fixed to
    1, so the walk visits one word of each pair c, -c, which share their
    weight and pivot weights.  Per run of supports, the last t = min(2,
    j - 1) rows give their 2^(t-1) sums s up to sign (b, or a + b and
    a - b), from j = 3 on read from a table built once per call
    (_pair_sums).  The first j - t coefficients walk their sign patterns in
    Gray-code order into the head h, which starts from its first pair's
    a + b (at j = 4 both patterns are read, so up to j = 4 nothing is
    added), one bit-sliced addition in place per step; each pattern yields
    one batch: the supports of h + s and h - s for every s (_sum_support).

    A batch's support is shaped (len(codes), 2^t * supports, lanes), the
    2^t words of each support in turn, for the listed stack positions.  A
    run holds at most _CHUNK supports for a stack of one code; a larger
    stack's codes still in the walk share min(_CHUNK, _STACK_ROWS), at
    least one each.  With a width (see _orbit_shape) only supports least
    among their rotations are walked, and mult holds each word's orbit
    size; otherwise mult is all ones.  A stack position the caller clears
    in alive leaves the walk at the start of the next run, so the rest of
    the current run's batches still hold its rows.

    The support is a buffer that the next step overwrites, so read each
    batch before asking for the next.
    """
    codes = np.arange(lo.shape[0])
    k, lanes = lo.shape[1:]
    rows = _CHUNK if len(codes) == 1 else min(_CHUNK, _STACK_ROWS)
    tail = min(2, j - 1)
    head = j - tail
    words = 1 << tail  # per support and batch
    # planes: the head rows' low planes, then their high ones (row 0 becomes
    # the running head h; at j = 4 row 1 holds a - b of the head pair), the
    # tail sums as low, high pairs in the tail rows' place, and a scratch
    # plane; the batch's supports, which also serve as scratch for the
    # additions, are held apart, codes first
    held = 2 * j
    # rows gathered per run, as (support column, low plane, high plane)
    gathered = [(0, 0, 1)] * (head == 1) + [(1, 2, 3)] * (j == 2) + [
        (t, t, head + t) for t in range(1, head) if head > 2]
    # pair sums read per run, as (head or tail pair, [(table planes, low
    # plane, high plane)]): a + b, and a - b for the tail and at j = 4
    read = [(0, [(0, 0, head)] + [(2, 1, 3)] * (j == 4))] * (head > 1) + [
        (1, [(0, held - 4, held - 3), (2, held - 2, held - 1)])] * (tail == 2)
    if read:  # code c's pair p at c C(k, 2) + p, so live codes need no copy
        pairs = _pair_sums(lo, hi).reshape(4, -1, lanes)
    # the (low, high) planes of the words added to h, each tail sum s then
    # -s, its planes swapped; for j = 1 the word is h itself
    signs = [(at + swap, at + 1 - swap) for at in range(2 * head, held, 2) for swap in (0, 1)]
    slo, shi = lo, hi
    store = np.empty(0, dtype=np.uint64)
    for combos, mult, index in _supports(k, j, width):
        s = 0
        while s < len(combos):
            if alive is not None and not alive[codes].all():
                codes = codes[alive[codes]]
                if not len(codes):
                    return
                slo, shi = lo[codes], hi[codes]
            step = max(1, rows // len(codes))
            run = slice(s, s + step)
            piece, m = combos[run], np.concatenate([mult[run]] * words)
            s += step
            plane = len(codes) * len(piece) * lanes
            if store.size < (held + 1 + words) * plane:
                # room for the largest run of this chunk at once: a store
                # grown run by run as codes leave would be allocated while
                # the caller still holds a batch of the one it replaces
                most = min(max(rows, len(codes)), len(codes) * len(combos)) * lanes
                store = np.empty((held + 1 + words) * most, dtype=np.uint64)
            buf = store[: (held + 1) * plane].reshape(held + 1, len(codes), len(piece), -1)
            out = store[(held + 1) * plane : (held + 1 + words) * plane].reshape(
                len(codes), words, len(piece), -1)
            scratch = out[:, :2].swapaxes(0, 1)  # free until the batch is formed
            for t, lo_at, hi_at in gathered:
                r = piece[:, t].astype(np.intp)  # each column cast once, for both planes
                np.take(slo, r, axis=1, out=buf[lo_at], mode="clip")
                np.take(shi, r, axis=1, out=buf[hi_at], mode="clip")
            for p, planes in read:
                at = (codes * comb(k, 2))[:, None] + index[p, run]
                for plane_at, lo_at, hi_at in planes:
                    np.take(pairs[plane_at], at, axis=0, out=buf[lo_at], mode="clip")
                    np.take(pairs[plane_at + 1], at, axis=0, out=buf[hi_at], mode="clip")
            for t in range(2, head):
                _add_into(buf[0], buf[head], buf[t], buf[head + t], scratch)
            for i in range(1 << (head - 1)):
                h = i if head == 2 else 0  # h's low plane: at j = 4 a + b, then a - b
                if i and head > 2:
                    # flipping pattern bit t - 1 takes coefficient t from 1
                    # to 2 (add the row) or back (add its negation, i.e. the
                    # row with planes swapped)
                    t = (i & -i).bit_length()
                    if ((i ^ (i >> 1)) >> (t - 1)) & 1:
                        _add_into(buf[0], buf[head], buf[t], buf[head + t], scratch)
                    else:
                        _add_into(buf[0], buf[head], buf[head + t], buf[t], scratch)
                if not tail:
                    np.bitwise_or(buf[h], buf[head + h], out=out[:, 0])
                for u, (a, b) in enumerate(signs):
                    _sum_support(buf[h], buf[head + h], buf[a], buf[b], out[:, u], buf[held])
                yield codes, out.reshape(len(codes), -1, lanes), m


def min_weight(code: Code, abort_below: int | None = None) -> int:
    """Exact minimum weight: of a self-dual code certified by the covering
    bound, of any other code read off its full distribution, which raises
    GuardError past dimension FULL_DISTRIBUTION_GUARD_K before any work.

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
    count_weight(code, d), and for them one scan is cheaper than two:
    count_weight alone would walk the same passes again, since a self-dual
    code's count always comes from the scan.
    """
    if code.k == 0:
        raise ValueError("minimum weight of the zero code is undefined")
    if "min_weight" not in code._cache:
        if code.is_self_dual():
            scan = _stack_counts(_code_stack(code), code.n, floor=abort_below or 1, least=True)
            if not scan.kept[0]:
                return int(scan.weight[0])
            d, count = int(scan.weight[0]), int(scan.count[0])
        else:
            counts = full_distribution(code).counts
            d = min(w for w in counts if w)
            count = counts[d]
        code._cache["min_weight"], code._cache["count_at_min"] = d, count
    return code._cache["min_weight"]


def count_weight(code: Code, w: int) -> int:
    """Exact number of codewords of weight w.

    Once min_weight has settled w as the minimum weight, this is the count
    it kept.  Otherwise, on a self-dual code, it runs the covering
    enumeration until its bound strictly exceeds w, so every weight-w word
    is visited (see _stack_counts).  Any other code is answered from
    full_distribution, under its guard.
    """
    if w < 1:
        raise ValueError("count_weight takes a positive weight")
    if code.k == 0 or w > code.n:
        return 0
    if code._cache.get("min_weight") == w:
        return code._cache["count_at_min"]
    if not code.is_self_dual():
        return full_distribution(code).counts.get(w, 0)
    return int(_stack_counts(_code_stack(code), w, floor=1).count[0])


class _Stack(NamedTuple):
    """Self-dual codes scanned together, sharing k and the orbit width; lo
    and hi hold the information sets (I | M) and (-M^T | I) of each, shaped
    (2, codes, k, lanes)."""

    lo: np.ndarray
    hi: np.ndarray
    width: int  # see _orbit_shape; 0 for a scan without orbits


def _code_stack(code: Code) -> _Stack:
    """The stack of one self-dual code, kept in its cache.

    Its columns reordered pivots first, which keeps every weight, the code
    is (I | A): its stack is _tile_stack's, with the orbit width that
    nega.build_generator recorded and 0 for other codes."""
    if "stack" not in code._cache:
        pivots = set(code.pivots)
        tiles = code._rows[None, :, [c for c in range(code.n) if c not in pivots]]
        code._cache["stack"] = _tile_stack(tiles, code._cache.get("orbit_width", 0))
    return code._cache["stack"]


def _tile_stack(tiles: np.ndarray, width: int) -> _Stack:
    """The stack of the (I | M) codes of a (codes, k, k) array of M over
    {0, 1, 2} with M M^T = -I, in closed form: the information sets (I | M)
    and (-M^T | I), as M^-1 = -M^T, and the caller's orbit width (see
    _orbit_shape), 0 when sigma may not be an automorphism."""
    k = tiles.shape[1]
    eye = np.broadcast_to(np.eye(k, dtype=np.int8), tiles.shape)
    bases = np.stack([np.concatenate([eye, tiles], axis=2),
                      np.concatenate([-tiles.mT % 3, eye], axis=2)])
    return _Stack(*_planes(bases), width)


def _settle(stack: _Stack, d: int) -> list[int | None]:
    """For each code of the stack, the number of its words of weight d when d
    is its minimum weight, else None: one scan (_stack_counts) settles both,
    and a code leaves the stack at its first word below d."""
    scan = _stack_counts(stack, d, floor=d)
    return [int(count) if kept and count else None for count, kept in zip(scan.count, scan.kept)]


class _Scan(NamedTuple):
    """What _stack_counts found, one entry per code of the stack."""

    weight: np.ndarray  # the weight counted, or the first weight below floor
    count: np.ndarray  # words of that weight
    kept: np.ndarray  # False for a code that met a word below floor


def _stack_counts(stack: _Stack, w: int, floor: int, least: bool = False) -> _Scan:
    """The number of weight-w words of each code of a stack, or with least
    set, its least weight up to w and the number of words of that weight.
    A code with a word of weight below floor leaves the stack there, with
    that weight: the walk drops it at its next run of supports, and until
    then its rows of the batches are skipped, so that weight is the first
    one below floor.

    The covering scan walks its (level, set) passes in order (see _passes)
    until the bound passes the weight counted, so every word of that weight
    or less is visited; in least mode each code's count restarts whenever
    its least weight falls.  A word is counted only at the first pass that
    visits it: its message support under set i is its weight on set i's
    pivots, so it is counted under the first set on whose pivots its weight
    is least.  The two sets' pivots are complementary, so a word of weight
    w met at level j under set i weighs w - j on the other set's pivots,
    and set i is the first to meet it exactly when 2j + i <= w.  Each
    visited word stands for itself and its negation, and on the orbit path
    for its whole negashift orbit (see _words), so no word is kept or
    compared.
    """
    _, size, k, _ = stack.lo.shape
    target = np.full(size, w, dtype=np.int64)
    total = np.zeros(size, dtype=np.int64)
    kept = np.ones(size, dtype=bool)
    drops = floor > 1  # no nonzero word weighs less than 1
    for j, i, unseen in _passes(k):
        for pos, support, mult in _words(stack.lo[i], stack.hi[i], j, stack.width,
                                         kept if drops else None):
            batch = _weights_of(support)
            if drops and not kept[pos].all():
                pos, batch = pos[kept[pos]], batch[kept[pos]]
                if not len(pos):
                    continue
            low = batch.min(axis=1)
            if drops:
                out = low < floor
                if out.any():
                    target[pos[out]], kept[pos[out]] = low[out], False
            if least:
                fell = low < target[pos]
                if fell.any():
                    target[pos[fell]], total[pos[fell]] = low[fell], 0
            aim = target[pos]
            if not (low <= aim).any():
                continue
            c, r = np.divmod(np.flatnonzero(batch == aim.astype(batch.dtype)[:, None]), batch.shape[1])
            first = 2 * j + i <= aim[c]
            np.add.at(total, pos[c[first]], mult[r[first]])
        support = None  # a view that holds the walk's buffer: free it before the next pass's
        if not kept.any() or unseen > target[kept].max():
            break
    return _Scan(target, 2 * total, kept)


def full_distribution(code: Code, allow_long: bool = False) -> WeightProfile:
    """The complete weight distribution, exact, over all 3^k codewords.

    The basis is split in half: all 3^(k - k//2) sums of the second half are
    tabulated, and the table is swept once per sum of the first half, each
    sweep a few whole-lane operations, with one bincount per two sums of
    equal orbit size (see _sweep).  On the orbit path, for the codes
    nega.build_generator gave an orbit width (see _orbit_shape), sigma maps
    the words whose first-block message is r onto those whose first-block
    message is the negashift of r, so only sums of the first half whose
    first-block digits are least in their negashift orbit are swept, and
    each histogram is scaled by that orbit's size; on other codes every sum
    is swept once.
    """
    if code.k == 0:
        return WeightProfile(code.n, {0: 1})
    half = code.k // 2
    width = code._cache.get("orbit_width", 0)
    _full_distribution_guard(code.k, width, allow_long)
    lo_a, hi_a = _span_planes(code._rows[:half])
    lo_b, hi_b = (np.ascontiguousarray(p.T) for p in _span_planes(code._rows[half:]))
    # row i of the first table has first-block digits i mod 3^width
    mult = np.resize(_negashift_orbit_sizes(width), lo_a.shape[0])
    counts = _sweep(lo_a, hi_a, lo_b, hi_b, mult, code.n)
    profile = WeightProfile(code.n, {w: int(c) for w, c in enumerate(counts) if c})
    if sum(profile.counts.values()) != 3**code.k:
        raise InternalInconsistencyError("distribution total is not 3^k")
    return profile


def _sweep(lo_a, hi_a, lo_b, hi_b, mult: np.ndarray, n: int) -> np.ndarray:
    """The weight histogram of the sums a + b, for a a row of the first
    table, shaped (rows, lanes), and b a column of the lane-major second
    table, shaped (lanes, columns); row i's histogram counts mult[i] times,
    and rows of mult 0 are skipped.

    Only weights are needed, so each lane of a sum's support is the two
    XORs and an OR of _sum_support against one lane of the row, a scalar,
    into buffers reused for every row.  Rows of equal mult are swept in
    pairs: the two rows' weights w0, w1 of each column are packed into one
    index w0 (n + 1) + w1, which fits 16 bits up to n = 255, and one
    bincount over (n + 1)^2 bins serves both rows, whose histograms are its
    table's two marginals.  A class's one unpaired row, if any, gets a
    bincount of its own."""
    columns = lo_b.shape[1]
    bins = n + 1
    index = np.min_scalar_type(bins * bins - 1)  # uint16 up to n = 255
    t = np.empty(columns, dtype=np.uint64)
    u = np.empty(columns, dtype=np.uint64)
    ones = np.empty(columns, dtype=np.uint8)
    weight = ones if lo_b.shape[0] == 1 else np.empty(columns, dtype=index)
    pair = np.empty(columns, dtype=index)

    def weigh(i):  # the weights of row i's sums, into weight
        for lane in range(lo_b.shape[0]):
            np.bitwise_count(_sum_support(lo_b[lane], hi_b[lane], lo_a[i, lane], hi_a[i, lane], t, u),
                             out=ones)
            if weight is not ones:
                if lane:
                    np.add(weight, ones, out=weight)
                else:
                    weight[:] = ones
        return weight

    counts = np.zeros(bins, dtype=np.int64)
    for m in np.unique(mult[mult != 0]):
        rows = np.flatnonzero(mult == m)
        table = np.zeros(bins * bins, dtype=np.int64)
        for a, b in zip(rows[0::2], rows[1::2]):
            np.multiply(weigh(a), index.type(bins), out=pair)
            np.add(pair, weigh(b), out=pair)
            table += np.bincount(pair, minlength=bins * bins)
        table = table.reshape(bins, bins)
        counts += m * (table.sum(axis=1) + table.sum(axis=0))
        if len(rows) % 2:
            counts += m * np.bincount(weigh(rows[-1]), minlength=bins)
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
    width b (see _orbit_shape) one first-block message per negashift orbit
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


def _span_planes(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Planes of every linear combination of int8 rows (t, n), 3^t of them,
    shaped (3^t, lanes): coefficient i is digit i of the index in base 3."""
    row_lo, row_hi = _planes(rows)
    lo = hi = np.zeros((1, row_lo.shape[1]), dtype=np.uint64)
    for rlo, rhi in zip(row_lo, row_hi):
        l1, h1 = _add_planes(lo, hi, rlo, rhi)
        l2, h2 = _add_planes(l1, h1, rlo, rhi)
        lo = np.concatenate([lo, l1, l2])
        hi = np.concatenate([hi, h1, h2])
    return lo, hi


def classify(code: Code) -> ExtremalityClass:
    """Extremality class of a self-dual code by its minimum weight (the
    cached one, when min_weight has already run on this code).  Any other
    code is refused with ValueError before any scan."""
    if not code.is_self_dual():
        raise ValueError(f"{code!r} is not self-dual, so it has no extremality class")
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
