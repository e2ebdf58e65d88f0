"""Candidate enumeration and verified search over the reduced parameter space.

Exhaustive mode walks triples (r1, r2, r3) of first rows as int8 rows,
listing the block pool, the words of r1's subcode and the dual's members
with one span walk (_span).  Structural constraints cut the space down
hard before any code is settled:

- r1 is assembled from a pool of width-n blocks that are zero or start
  with 1, in non-increasing f-value order (f reads a vector as a base-3
  integer, first entry least significant), and the 3^n words of its
  generator rows (e_i | block row i) must clear the target weight;
- r2 is taken from the dual of the block rows of r1, r3 from the dual of
  the block rows of r1 and r2 (_DualSpace, listed in ascending f order up
  to the f-value of the row above);
- r1, r2 and r3 pass one batched row predicate, _admissible: a leading 1,
  weight 2 mod 3 and at least d - 1, and the diagonal Gram identity.

A sampled group of trials draws one self-dual M per trial uniformly in the
ring R_n, the group's batches tested together (_ring_draws), and moves each
into the exhaustive walk's row form where a block move can, on one int8
array (nega._walk_form).  Every unit reaches the verifier in one format,
the int8 first rows of its specs shaped (specs, 3, 3n), and both modes
verify them with no Code built: a batch of specs takes one gather for
their M, one product to check M M^T = -I, and one covering scan of
(I | M) and (-M^T | I) that settles d and the count at d
(weights._tile_stack, weights._settle).  A CodeSpec is built only for a
spec that verifies.

A run is a sequence of work units: one r1 in exhaustive mode, keyed by
f(r1), one trial in sampled mode, each trial drawing from its own generator
seeded by (plan seed, trial index).  A partition (index, total) takes every
total-th unit.  Units run in groups, one r1 or weights._STACK consecutive
trials, whose specs are settled _STACK at a time; groups run inline with
one worker or in a process pool with more, and one merge builds the
findings in unit order, so the output is the same for any worker count.  A
run in either mode can keep an append-only checkpoint log of its merged
units, one line per unit, which a rerun with any worker count resumes.  A
neighbor sweep settles its neighbors a window of weights._STACK seeds at a
time, from one echelon update of the base code's basis (_neighbors).
"""

from __future__ import annotations

import collections
import contextlib
import functools
import itertools
import json
import logging
import os
import random
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from .errors import (
    InternalInconsistencyError,
    LengthMismatchError,
    NeighborCodeError,
    NeighborMembershipError,
    NeighborWeightError,
    RegistryError,
)
from .gf3 import Code, Gf3Vector, _code, _dual_rows, _echelon, _entry_rows, _vectors
from .nega import (CodeSpec, _at_least, _block_gram, _block_rows, _negashift_table, _walk_form,
                   f_value)
from .registry import Registry, load_registry
from .weights import (_CHUNK, _STACK, _orbit_shape, _settle, _tile_stack, ms_bound,
                      near_extremal_weight)

log = logging.getLogger(__name__)

_STALL = 1000  # empty batches of a row draw, or short rounds of sweep seeds


@dataclass(frozen=True)
class SearchPlan:
    """Everything that determines a search run.

    partition = (index, total) assigns this run a round-robin share of the
    r1 candidates (exhaustive) or trials (sampled).  seed and budget, the
    number of sampled trials, are ignored in exhaustive mode, and to_dict
    records them there as 0 and None, so they do not tell plans apart.
    """

    block_size: int
    target: str = "near-extremal"  # or "extremal"
    mode: str = "exhaustive"  # or "sampled"
    seed: int = 0
    partition: tuple[int, int] = (0, 1)
    budget: int | None = None

    def __post_init__(self):
        if self.block_size < 1:
            raise ValueError("block size must be positive")
        if self.target not in ("near-extremal", "extremal"):
            raise ValueError(f"unknown target class {self.target!r}")
        if self.mode not in ("exhaustive", "sampled"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if not 0 <= self.seed < 1 << 64:
            raise ValueError("seed must fit in 64 bits")
        index, total = self.partition
        if total < 1 or not 0 <= index < total:
            raise ValueError(f"bad partition {self.partition}")
        if self.mode == "sampled" and (self.budget is None or self.budget < 1):
            raise ValueError("sampled mode needs a budget of at least 1 (CLI: --budget)")
        if self.mode == "sampled" and not _draw_reaches(self.block_size):
            raise ValueError(f"sampled mode cannot draw at block size {self.block_size}: a row "
                             f"would take more than {_STALL // 10} batches on average")

    @property
    def length(self) -> int:
        return 6 * self.block_size

    @property
    def target_min_weight(self) -> int:
        base = near_extremal_weight(self.length)
        return base + 3 if self.target == "extremal" else base

    def to_dict(self) -> dict:
        doc = {**asdict(self), "partition": list(self.partition)}
        if self.mode == "exhaustive":
            doc.update(seed=0, budget=None)
        return doc


@dataclass(frozen=True)
class Finding:
    """One verified search result.

    kind "spec" carries the build vectors; kind "neighbor" carries the seed
    vector x and the label of the code it was applied to.  sets lists the
    names of the stored beta sets containing this beta; novelty is true
    when none do.
    """

    kind: str
    n: int
    d: int
    alpha: int
    beta: int | None
    novelty: bool
    sets: tuple[str, ...] = ()
    spec: CodeSpec | None = None
    x: tuple[int, ...] | None = None
    parent: str | None = None

    def sort_key(self) -> tuple:
        if self.spec is not None:
            return (0,) + tuple(f_value(r) for r in self.spec.rows)
        return (1, f_value(Gf3Vector(self.x or ())))

    def to_record(self) -> dict:
        rec: dict = {"kind": self.kind, "n": self.n}
        if self.spec is not None:
            rec["r1"] = self.spec.r1.entries()
            rec["r2"] = self.spec.r2.entries()
            rec["r3"] = self.spec.r3.entries()
        if self.x is not None:
            rec["x"] = list(self.x)
        if self.parent is not None:
            rec["parent"] = self.parent
        rec.update(d=self.d, alpha=self.alpha, beta=self.beta, novelty=self.novelty)
        rec["sets"] = list(self.sets)
        return rec

    @classmethod
    def from_record(cls, rec: dict) -> "Finding":
        """The finding of a to_record record: a spec record reads r1, r2
        and r3, a neighbor record x and its parent's label.  Another kind,
        or a field that to_record would not have written, is a ValueError:
        n, d and alpha positive ints, n the rows' length, beta as beta_of
        gives it, sets a list of strings and novelty whether it is empty."""
        kind = rec["kind"]
        if kind == "spec":
            rows = [_digit_row(rec, r) for r in ("r1", "r2", "r3")]
            spec, x, length = CodeSpec.from_entry_rows(rows), None, 2 * len(rows[0])
        elif kind == "neighbor":
            spec, x = None, tuple(_digit_row(rec, "x"))
            length = len(x)
        else:
            raise ValueError(f"unknown finding kind {kind!r}")
        n, d, alpha, beta, novelty, sets, parent = (
            rec.get(key) for key in ("n", "d", "alpha", "beta", "novelty", "sets", "parent"))
        if not (all(type(v) is int and v > 0 for v in (n, d, alpha)) and n == length
                and beta == beta_of(alpha) and type(beta) is type(beta_of(alpha))
                and isinstance(sets, list) and all(type(g) is str for g in sets)
                and novelty is (not sets)
                and ("parent" not in rec if kind == "spec" else type(parent) is str)):
            raise ValueError(f"finding record: fields that to_record does not write: {rec!r}")
        return cls(kind=kind, n=n, d=d, alpha=alpha, beta=beta, novelty=novelty,
                   sets=tuple(sets), spec=spec, x=x, parent=parent)


def _digit_row(rec: dict, key: str) -> list[int]:
    """rec[key], a list of ints 0, 1 and 2 (bools are not), or ValueError."""
    row = rec.get(key)
    if not isinstance(row, list) or not all(type(e) is int and 0 <= e <= 2 for e in row):
        raise ValueError(f"finding record: {key} is not a row of digits 0, 1, 2: {row!r}")
    return row


def read_findings(lines) -> list[Finding]:
    """Parse a findings stream (JSON lines, blanks ignored) back into
    Finding objects.  Inverse of printing to_record() one per line."""
    return [Finding.from_record(json.loads(line)) for line in lines if line.strip()]


# -- building blocks ----------------------------------------------------------


def _digits(value: int, width: int) -> np.ndarray:
    """The int8 row of f-value 0 <= value < 3^width, exact past int64."""
    return np.array([value // 3**i % 3 for i in range(width)], np.int8)


def _combination(rows: np.ndarray, k: int) -> np.ndarray:
    """Combination number k of int8 rows (t, width): digit j of k is the
    coefficient of rows[j]."""
    return (np.matmul(_digits(k, len(rows)), rows, dtype=np.int16) % 3).astype(np.int8)


def _span(rows: np.ndarray, count: int) -> Iterator[np.ndarray]:
    """The first count combinations of int8 rows in counter order, as int8
    arrays of at most weights._CHUNK rows: a table of the low rows'
    combinations, unreduced (at most 4 from each of at most 10 rows), plus
    one combination of the high rows per batch, mod 3."""
    low = np.zeros((1, rows.shape[1]), np.int8)
    for row in rows:  # least significant digit first
        if len(low) >= count or 3 * len(low) > _CHUNK:
            break
        low = np.concatenate([low + c * row for c in range(3)])
    for start in range(0, count, len(low)):
        batch = low[: count - start] + _combination(rows, start)  # low digits 0
        yield np.remainder(batch, 3, out=batch)


def _lead(vals: np.ndarray) -> np.ndarray:
    """The first nonzero entry of each row of an entry array, 0 for a zero row."""
    return vals[np.arange(len(vals)), (vals != 0).argmax(axis=1)]


@functools.cache
def _block_pool(m: int) -> tuple[tuple[int, int], ...]:
    """(f, weight) of every width-m vector allowed as an r1 block (zero or
    leading 1), in ascending f order: the exhaustive r1 are its
    non-increasing triples.  Combination k of the identity's rows has f-value k."""
    vals = np.concatenate(list(_span(np.eye(m, dtype=np.int8), 3**m)))
    keep = np.flatnonzero(_lead(vals) != 2)
    return tuple(zip(keep.tolist(), np.count_nonzero(vals[keep], axis=1).tolist()))


class _DualSpace:
    """Dual of a span of int8 rows, its basis int8 rows in counter order.

    The span's one row reduction (gf3._echelon) gives that basis in closed
    form (gf3._dual_rows): row j has a 1 at the j-th column off the span's
    pivots, ascending, and is zero right of it and on the other rows' such
    columns.  So member number k, combination k of the rows, has f-value
    strictly rising in k: the coefficient counter is the f order."""

    def __init__(self, span: np.ndarray):
        self.basis = _dual_rows(*_echelon(span))

    def member(self, k: int) -> np.ndarray:
        """Member number k, for 0 <= k < 3^len(basis)."""
        return _combination(self.basis, k)

    def count(self, limit: int) -> int:
        """How many members, the zero member among them, have f-value at
        most limit, 0 <= limit < 3^width: bisection over the counter, f
        compared digit by digit (nega._at_least)."""
        top = _digits(limit, self.basis.shape[1])
        lo, hi = 1, 3 ** len(self.basis)  # members below lo pass, from hi on fail
        while lo < hi:
            mid = (lo + hi) // 2
            if _at_least(top, self.member(mid)):
                lo = mid + 1
            else:
                hi = mid
        return lo

    def members(self, limit: int) -> Iterator[np.ndarray]:
        """The members with f-value at most limit, the zero member first,
        in ascending f order, in batches (_span)."""
        return _span(self.basis, self.count(limit))


def _weight_passes(w, d: int):
    """The row-weight rule, 2 mod 3 and at least d - 1, for one weight or
    an array of them."""
    return (w % 3 == 2) & (w >= d - 1)


def _admissible(vals: np.ndarray, d: int, m: int) -> np.ndarray:
    """Which rows of a (rows, 3m) entry array pass the row predicate: a
    leading 1, the row-weight rule (_weight_passes) and the diagonal Gram
    identity nega._block_gram(v, v, m) = (2, 0, ..., 0), tested only on the
    rows that pass the rest.  The f ceiling is the walk's (_unit_rows)."""
    ok = (_lead(vals) == 1) & _weight_passes(np.count_nonzero(vals, axis=1), d)
    gram = _block_gram(vals[ok], vals[ok], m)
    ok[ok] = (gram[:, 0] == 2) & ~gram[:, 1:].any(axis=1)
    return ok


def _d_prune_survives(row1: np.ndarray, m: int, d: int) -> bool:
    """Whether the subcode spanned by the m full generator rows built from
    the int8 r1 has no nonzero word lighter than d.  Those rows are (e_i |
    block row i), so the subcode sits inside every completed code; a light
    word here dooms all of them.  Its 3^m words are walked over the 4m
    columns the rows touch (_span), up to the first batch with a light one."""
    rows = np.concatenate((np.eye(m, dtype=np.int8), _block_rows(row1, m) % 3), axis=1)
    batches = (np.count_nonzero(words, axis=1) for words in _span(rows, 3**m))
    return not any(((0 < w) & (w < d)).any() for w in batches)  # only the zero word weighs 0


# -- the ring draw of a sampled group -----------------------------------------
#
# Over R_n a self-dual M has rows with <r_i, r_j> = 2 [i == j] for the
# Hermitian form <a, b> = sum_t a_t b_t^* (nega._block_gram).  As <r, r> =
# 2 = -1, v -> v + sum_i <v, r_i> r_i maps R_n^3 evenly onto the complement
# of the rows taken; as 2 is a unit, Witt's theorem gives every norm-2 row
# the same number of completions.  So r1, r2, r3, each uniform among the
# norm-2 rows of its complement, make M uniform among all self-dual M.


def _trits(rng: random.Random, count: int) -> np.ndarray:
    """count uniform entries of GF(3) as int8: rng's bytes below 255, mod 3."""
    out = np.empty(0, np.uint8)
    while len(out) < count:
        raw = np.frombuffer(rng.randbytes(count - len(out) + count // 64 + 8), np.uint8)
        out = np.concatenate((out, raw[raw < 255]))
    return (out[:count] % 3).astype(np.int8)


def _batch_size(n: int) -> int:
    """Rows in one batch of a row draw: about twice 3^(n/2), the inverse
    share of norm 2 (measured within 5% at n = 10 to 16), capped at 4 MB of
    block rows."""
    return min(2 * 3 ** (n // 2), 2**22 // (3 * n * n))


def _draw_reaches(n: int) -> bool:
    """Whether a sampled trial at block size n expects at most _STALL / 10
    batches per row, 3^(n/2) / _batch_size(n): true at odd n, which draw
    nothing, false at even n from 24 on (219 batches there)."""
    return n % 2 == 1 or 10 * 3 ** (n // 2) <= _STALL * _batch_size(n)


def _ring_rows(rngs: Sequence[random.Random], taken: np.ndarray) -> np.ndarray:
    """For each trial t, int8 rows (trials, 3n): the first row of norm 2
    among its batches of _batch_size(n) uniform rows, one _trits call on
    rngs[t] each, projected onto the complement of its rows taken[t]
    (taken is (trials, j, 3n)) by v -> v + sum_i <v, r_i> r_i.  A round
    draws a batch for each trial still without a row and tests them in
    slices of about 2^20 entries: two float32 products (exact: sums below
    48 n^2), then the norm's coefficients at x^0 .. x^(n//2), which fix the
    rest as a norm is self-adjoint (c_(n-k) = -c_k).  A trial with _STALL
    empty batches raises InternalInconsistencyError."""
    count, above, width = taken.shape
    n, size = width // 3, _batch_size(width // 3)
    index, sign = _negashift_table(n)
    rows = _block_rows(taken, n).reshape(count, above * n, width)
    out, missing = np.empty((count, width), np.int8), np.ones(count, bool)
    step = max(1, 2**20 // (size * width))
    for _ in range(_STALL):
        live = np.flatnonzero(missing)
        for part in (live[s : s + step] for s in range(0, len(live), step)):
            v = np.stack([_trits(rngs[t], size * width) for t in part]).reshape(-1, size, width)
            if above:
                v = v + np.matmul(np.matmul(v, rows[part].mT, dtype=np.float32), rows[part])
                v = (v - 3 * np.floor(v / 3)).astype(np.int8)
            v = v.reshape(-1, width)
            keep = np.flatnonzero(np.count_nonzero(v, axis=1) % 3 == 2)  # the constant term
            for k in range(1, n // 2 + 1):
                u = v[keep]
                keep = keep[(u * (u[:, index[k]] * sign[k])).sum(axis=1, dtype=np.int16) % 3 == 0]
            hit, first = np.unique(keep // size, return_index=True)
            out[part[hit]] = v[keep[first]]
            missing[part[hit]] = False
        if not missing.any():
            return out
    raise InternalInconsistencyError(f"no row of norm 2 in {_STALL} batches at n = {n}")


def _ring_draws(rngs: Sequence[random.Random], n: int) -> np.ndarray:
    """A uniform self-dual M per generator, as int8 first rows (trials, 3,
    3n): r1, r2, r3 drawn in turn (_ring_rows)."""
    rows = np.empty((len(rngs), 0, 3 * n), np.int8)
    for _ in range(3):
        rows = np.concatenate((rows, _ring_rows(rngs, rows)[:, None]), axis=1)
    return rows


# -- work units -----------------------------------------------------------------


def _units(plan: SearchPlan) -> Iterator[int]:
    """This run's work units in order: the f(r1) of each r1 in the plan's
    round-robin share, ascending (exhaustive), or its trial indices
    (sampled)."""
    index, total = plan.partition
    if plan.mode == "sampled":
        assert plan.budget is not None
        yield from range(index, plan.budget, total)
        return
    m = plan.block_size
    d = plan.target_min_weight
    shift = 3**m
    rank = 0
    for (xf, xw), (yf, yw), (zf, zw) in itertools.combinations_with_replacement(_block_pool(m), 3):
        if not _weight_passes(xw + yw + zw, d):
            continue
        if rank % total == index:
            yield zf + shift * yf + shift * shift * xf  # blocks z, y, x: non-increasing f
        rank += 1


def _unit_rows(plan: SearchPlan, unit: int) -> np.ndarray:
    """The first rows of the specs of one exhaustive unit that pass the
    structural constraints, as int8 (specs, 3, 3n), in ascending
    (f(r2), f(r3)) order.

    Exhaustive mode takes r1 = _digits(unit, 3n) and every admissible r2,
    r3.  r1 passes the row predicate (_admissible) and the minimum-weight
    prune of its subcode (_d_prune_survives); both only drop candidates
    that could never verify.  The r3 space of an r2 is the dual D1 of r1's
    block rows cut down to the rows orthogonal to r2's block rows, under
    the ceiling f(r3) <= f(r2) <= f(r1), and r2 and r3 pass the same row
    predicate.  So the r3 of an r2 are admissible r2 themselves: one
    batched walk over D1 up to f(r1) (_DualSpace.members) lists those in
    ascending f, and the r3 of the i-th are those of the first i + 1 whose
    cross identity with it, nega._block_gram(r3, r2, m) = 0, holds.  Their
    indices fill one preallocated array.
    """
    m = plan.block_size
    width = 3 * m
    d = plan.target_min_weight
    row1 = _digits(unit, width)
    if not (_admissible(row1[None], d, m)[0] and _d_prune_survives(row1, m, d)):
        return np.empty((0, 3, width), np.int8)
    rows = np.concatenate([vals[_admissible(vals, d, m)] for vals
                           in _DualSpace(_block_rows(row1, m)).members(unit)])
    r3 = [np.flatnonzero(~_block_gram(rows[: i + 1], rows[i], m).any(axis=1))
          for i in range(len(rows))]
    r2 = np.repeat(np.arange(len(rows)), [len(k) for k in r3])
    r3 = np.concatenate(r3) if r3 else r2  # both empty when no row is admissible
    out = np.empty((len(r2), 3, width), np.int8)
    out[:, 0] = row1
    out[:, 1] = rows[r2]
    out[:, 2] = rows[r3]
    return out


def _trial_rows(plan: SearchPlan, trials: Sequence[int]) -> np.ndarray:
    """The first rows of a group of sampled trials, as int8 (trials, 3, 3n):
    each trial's M, self-dual by construction, drawn with the generator
    seeded by (plan seed, trial) (_ring_draws) and moved into the walk's row
    form where a move reaches it (nega._walk_form)."""
    rngs = [random.Random(f"{plan.seed}:{t}") for t in trials]
    return _walk_form(_ring_draws(rngs, plan.block_size))


# -- public operations ----------------------------------------------------------


def beta_set_matches(registry: Registry, length: int, beta: int | None) -> tuple[str, ...]:
    """Names of the stored beta sets at this length containing beta."""
    if beta is None:
        return ()
    return tuple(
        sorted(g.name for g in registry.sets_for_length(length) if beta in g.beta8_members())
    )


def beta_of(alpha: int) -> int | None:
    """beta = alpha / 8, the count the beta sets hold; None when 8 does not
    divide alpha."""
    return alpha // 8 if alpha % 8 == 0 else None


def make_finding(registry: Registry, kind: str, n: int, d: int, alpha: int,
                 **origin) -> Finding:
    """A finding whose beta, matching beta sets and novelty follow from
    alpha and the registry; origin is spec=, or x= and parent=."""
    beta = beta_of(alpha)
    sets = beta_set_matches(registry, n, beta)
    return Finding(kind=kind, n=n, d=d, alpha=alpha, beta=beta,
                   novelty=not sets, sets=sets, **origin)


def _tiles(rows: np.ndarray) -> np.ndarray:
    """The M of (I | M) of each spec, as a (specs, 3m, 3m) int8 array, from
    their first rows as a (specs, 3, 3m) one: block row i is
    nega._block_rows of r_i."""
    k = rows.shape[-1]
    return (_block_rows(rows, k // 3) % 3).reshape(len(rows), k, k)


def _run_units(plan: SearchPlan, units: list[int]) -> list[list[tuple[CodeSpec, int]]]:
    """For each of a group of units, (spec, alpha) for each of its specs
    that verifies.  beta sets and novelty are left to the merge, which holds
    the caller's registry.

    Each unit's specs are int8 first rows (specs, 3, 3n): an exhaustive
    unit's from _unit_rows, a sampled trial's one draw from the group's
    _trial_rows.  The group's specs are verified _STACK at a time from the
    M of their first rows (_tiles): one int16 product checks M M^T = -I,
    and one scan of their stack (weights._tile_stack) settles d and alpha,
    split back per unit.  A spec is built only when it verifies, its
    vectors cut from the bytes of the int8 rows (gf3._vectors)."""
    if plan.mode == "sampled":
        groups = _trial_rows(plan, units)[:, None]
    else:
        groups = [_unit_rows(plan, unit) for unit in units]
    flat = np.concatenate(groups)
    alphas: list[int | None] = []
    for s in range(0, len(flat), _STACK):
        tiles = _tiles(flat[s : s + _STACK])
        if (np.matmul(tiles, tiles.mT, dtype=np.int16) % 3 != 2 * np.eye(tiles.shape[1])).any():
            raise InternalInconsistencyError("candidate passed all identities but is not self-dual")
        alphas += _settle(_tile_stack(tiles, _orbit_shape(plan.length, tiles.shape[1])),
                          plan.target_min_weight)
    kept = np.array([alpha is not None for alpha in alphas], dtype=bool)
    rows = iter(_vectors(flat[kept].reshape(-1, flat.shape[-1])))
    found = iter(alphas)
    return [[(CodeSpec(plan.block_size, next(rows), next(rows), next(rows)), alpha)
             for alpha in itertools.islice(found, len(group)) if alpha is not None]
            for group in groups]


def _map_units(plan: SearchPlan, units: Iterator[int], workers: int) -> Iterator[list]:
    """The results of _run_units over the units, one per unit, in unit
    order.

    Units run in groups: one r1 (exhaustive), or _STACK consecutive trials
    (sampled), whose specs share one stacked scan.  The pool holds at most
    one process per worker, per core and per pending group; with one
    process the groups run inline.  It runs a window of four groups per
    process ahead of the merge, where Executor.map would submit every group
    up front: one future per r1, millions at length 36.
    """
    size = _STACK if plan.mode == "sampled" else 1
    groups = iter(lambda: list(itertools.islice(units, size)), [])
    head = list(itertools.islice(groups, min(workers, os.cpu_count() or 1)))
    groups = itertools.chain(head, groups)
    if len(head) <= 1:
        for group in groups:
            yield from _run_units(plan, group)
        return
    with ProcessPoolExecutor(max_workers=len(head)) as pool:
        window: collections.deque = collections.deque()
        for group in groups:
            window.append(pool.submit(_run_units, plan, group))
            if len(window) == 4 * len(head):
                yield from window.popleft().result()
        while window:
            yield from window.popleft().result()


def _write_line(path: Path, doc: dict) -> None:
    """Replace path atomically by one JSON line."""
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(json.dumps(doc) + "\n")
    os.replace(tmp, path)


class _CheckpointLog:
    """The append-only checkpoint of a run; with no path it records nothing.

    The first line is the header {"version": 2, "plan": ...}, with
    "draw": "ring" for a sampled run: a sampled log without it was written
    by the rejection sampler that the ring draw replaced, and is refused
    like one for another plan.  Each merged unit appends and flushes one
    line {"unit": ..., "findings": [...]}, the unit being f(r1)
    (exhaustive) or the trial index (sampled), so a killed run loses only
    the units not yet merged.  A finished run's log is
    replaced by the one line {"version": 2, "plan": ..., "complete": true,
    "findings": [...]} holding the merged stream.  Reading validates the
    header and each unit line and parses every finding record
    (Finding.from_record), a bad one, or a unit that is not an int or is
    logged twice, refused with ValueError naming the file and line before
    any unit runs; a final line torn by a kill is dropped, and cut off
    before the next append.
    """

    def __init__(self, path: Path | None, plan: SearchPlan):
        self.path = path
        self.header = {"version": 2, "plan": plan.to_dict()}
        if plan.mode == "sampled":
            self.header["draw"] = "ring"
        self.done: dict[int, tuple[list[Finding], list[dict]]] = {}
        self.complete: list[Finding] | None = None
        self._end = 0  # bytes up to the end of the last whole line
        self._file = None
        if path is None or not path.exists():
            return
        data = path.read_bytes()
        self._end = data.rfind(b"\n") + 1
        lines = data[: self._end].splitlines()
        try:
            header = json.loads(lines[0])
        except (IndexError, ValueError):
            header = None
        if not isinstance(header, dict) or header.get("version") != 2:
            raise ValueError(f"unknown checkpoint version in {path}")
        if header.get("plan") != self.header["plan"]:
            raise ValueError(
                f"checkpoint {path} was written for a different plan: {header.get('plan')}"
            )
        if header.get("draw") != self.header.get("draw"):
            raise ValueError(f"checkpoint {path} holds trials of the rejection sampler")
        if header.get("complete"):
            if "findings" not in header:
                raise ValueError(f"checkpoint {path}, line 1: complete, but with no findings")
            try:
                self.complete = [Finding.from_record(r) for r in header["findings"]]
            except (ValueError, TypeError, KeyError):
                raise ValueError(f"checkpoint {path}, line 1: complete, but its findings "
                                 "are not finding records") from None
        for number, line in enumerate(lines[1:], start=2):
            try:
                rec = json.loads(line)
                unit, records = rec["unit"], rec["findings"]
                findings = [Finding.from_record(r) for r in records]
            except (ValueError, TypeError, KeyError):
                unit = None
            if type(unit) is not int or unit in self.done:  # no float, bool or repeat
                raise ValueError(f"checkpoint {path}, line {number}: not a unit record "
                                 '{"unit": ..., "findings": [...]}')
            self.done[unit] = findings, records

    def __enter__(self) -> "_CheckpointLog":
        if self.path is None:
            return self
        if self._end:
            self._file = open(self.path, "a")
            self._file.truncate(self._end)  # cut a torn last line
        else:
            _write_line(self.path, self.header)
            self._file = open(self.path, "a")
        return self

    def __exit__(self, *exc) -> None:
        if self._file is not None:
            self._file.close()

    def append(self, unit: int, findings: list[Finding]) -> list[dict | None]:
        """Log a unit; the records written, or None each with no log."""
        if self._file is None:
            return [None] * len(findings)
        records = [f.to_record() for f in findings]
        self._file.write(json.dumps({"unit": unit, "findings": records}) + "\n")
        self._file.flush()
        return records

    def finish(self, records: list[dict | None]) -> None:
        """Replace the log by the merged stream's records."""
        if self._file is None:
            return
        self._file.close()
        _write_line(self.path, {**self.header, "complete": True, "findings": records})


def _merge(
    plan: SearchPlan, registry: Registry, workers: int, ckpt: _CheckpointLog
) -> Iterator[Finding]:
    """Findings unit by unit: logged units replayed, the rest run and built
    with the caller's registry.  Exhaustive findings stream in unit order;
    sampled ones are deduplicated and sorted at the end.  One walk of the
    units feeds both the pool and the merge, which trails it by at most the
    pool's window; each finding keeps the record logged or replayed."""
    if ckpt.complete is not None:
        yield from ckpt.complete
        return
    stream: list[tuple[Finding, dict | None]] = []
    sampled = plan.mode == "sampled"
    units, pending = itertools.tee(_units(plan))
    pending = (u for u in pending if u not in ckpt.done)
    with ckpt, contextlib.closing(_map_units(plan, pending, workers)) as results:
        for unit in units:
            if unit in ckpt.done:
                findings, records = ckpt.done[unit]
            else:
                findings = [
                    make_finding(registry, "spec", plan.length, plan.target_min_weight,
                                 alpha, spec=spec)
                    for spec, alpha in next(results)
                ]
                records = ckpt.append(unit, findings)
            stream.extend(zip(findings, records))
            if not sampled:
                yield from findings
        if sampled:  # a spec drawn by several trials counts once
            stream = sorted({f.spec: (f, rec) for f, rec in stream}.values(),
                            key=lambda pair: pair[0].sort_key())
        ckpt.finish([rec for _, rec in stream])
    if sampled:
        yield from (f for f, _ in stream)


def run_search(
    plan: SearchPlan,
    *,
    registry: Registry | None = None,
    workers: int = 1,
    checkpoint: Path | str | None = None,
) -> Iterator[Finding]:
    """Search the plan's share of the space and yield verified findings.

    Every finding is a self-dual code whose minimum weight equals the
    plan's target exactly, with its weight-d count computed under the
    covering certificate.  Output order is ascending (f(r1), f(r2), f(r3))
    regardless of mode or worker count; exhaustive findings stream as each
    r1 is merged.

    Exhaustive mode exhausts the paper's reduced space, the first-row
    triples in the walk's row form, not every self-dual M: at length 12
    that space misses the extended Golay code.

    Block sizes with no self-dual codes at all (odd sizes: the code length
    is then 6 mod 12, and self-dual codes need length 0 mod 4) return an
    empty stream immediately.

    A run with a checkpoint logs each merged unit with its findings: each
    r1 (exhaustive) or each trial (sampled).  A rerun with the same plan and
    file, and any worker count, replays the logged units and computes only
    the rest, so the stream is the uninterrupted one; a complete log
    replays the finished stream without running a unit.  The seed and
    budget that an exhaustive plan ignores are not logged.  A checkpoint
    written for another plan, in an unknown format or by the rejection
    sampler, and workers < 1, are refused when run_search is called,
    before any work starts.
    """
    if workers < 1:
        raise ValueError("workers must be at least 1")
    ckpt = _CheckpointLog(Path(checkpoint) if checkpoint is not None else None, plan)
    if plan.block_size % 2 == 1:
        log.warning(
            "length %d is 6 mod 12; no self-dual code of that length exists, "
            "returning an empty stream", plan.length,
        )
        return iter(())
    if registry is None:
        registry = load_registry()
    return _merge(plan, registry, workers, ckpt)


# -- neighbors ------------------------------------------------------------------


def _neighbors(c: Code, seeds: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The neighbors <x> + (c & x^perp) of a self-dual c for the seeds x,
    the rows of an int16 array shaped (seeds, n) over {0, 1, 2}:
    their bases, shaped (seeds, k, n), and the A of their forms (I | A) up
    to a column permutation, shaped (seeds, k, k), over {0, 1, 2}.

    With syndromes s = x G^T for c's reduced basis G, pivots P, and p the
    first row with s_p != 0, row i becomes b_i - s_i s_p b_p, orthogonal to
    x (and 0 for i = p).  x, reduced against the others on their pivots and
    scaled to 1 at its first nonzero column q, is cleared out of them at q
    and takes row p: the identity is now on P with p swapped for q.  A zero
    syndrome puts x in c, its own dual: NeighborMembershipError.  The
    identity and A A^T = -I (self-duality) are checked for the whole batch."""
    basis = c._rows.astype(np.int16)
    s = seeds @ basis.T % 3  # int16 sums of at most 4n
    if not s.any(axis=1).all():
        raise NeighborMembershipError("x lies in the code; the neighbor would be c itself")
    w, p = np.arange(len(seeds)), (s != 0).argmax(axis=1)
    rows = (basis - (s * s[w, p, None])[:, :, None] * basis[p, None]) % 3  # 1 / s_p = s_p
    x = (seeds - np.einsum("wk,wkn->wn", seeds[:, c.pivots], rows)) % 3
    q = (x != 0).argmax(axis=1)
    x = x * x[w, q, None] % 3
    rows = (rows - rows[w, :, q, None] * x[:, None]) % 3
    rows[w, p] = x
    pivots = np.where(np.arange(c.k) == p[:, None], q[:, None], c.pivots)
    on = np.zeros(seeds.shape, bool)
    on[w[:, None], pivots] = True
    tiles = rows.mT[~on].reshape(len(seeds), c.n - c.k, c.k).mT  # columns off the pivots, ascending
    if ((np.take_along_axis(rows, pivots[:, None], axis=2) != np.eye(c.k)).any()
            or (np.matmul(tiles, tiles.mT) % 3 != 2 * np.eye(c.k)).any()):
        raise InternalInconsistencyError("neighbor construction lost self-duality")
    return rows, tiles


def neighbor(c: Code, x: Gf3Vector) -> Code:
    """The self-dual code spanned by x and the subcode of c orthogonal to x
    (_neighbors, the sweep's update, for one seed), in canonical form.

    Requires wt(x) divisible by 3 (so x is self-orthogonal), x outside c,
    and c itself self-dual; each violated clause raises its own error.
    """
    if len(x) != c.n:
        raise LengthMismatchError(f"vector length {len(x)} != code length {c.n}")
    if x.weight() % 3 != 0:
        raise NeighborWeightError(f"wt(x) = {x.weight()} is not divisible by 3")
    if not c.is_self_dual():
        raise NeighborCodeError("base code is not self-dual")
    rows, _ = _neighbors(c, _entry_rows([x], c.n).astype(np.int16))
    return _code(rows[0])


def neighbor_sweep(
    c: Code,
    budget: int,
    seed: int,
    *,
    parent_label: str,
    target: str = "near-extremal",
    registry: Registry | None = None,
) -> Iterator[Finding]:
    """Try budget >= 1 random neighbor seeds and yield the findings in
    the target class.  Seeds are drawn uniformly over vectors with weight
    divisible by 3 and outside c, by rejection; the stream is a pure
    function of (c, budget, seed).  Each finding names c by parent_label,
    which its record needs to read back (Finding.from_record).

    Seeds are drawn a window of _STACK at a time, tested as one batch of
    peeked generator values (_neighbor_seeds).  A window's neighbors are
    built in one update of c's basis (_neighbors), with no Code each, and
    settled in one closed-form stack of their (I | A) forms, without orbits
    (weights._tile_stack); the window's findings are then yielded in draw
    order.  So a consumer that stops early has paid for up to _STACK - 1
    neighbors past the last finding it took.  Bad arguments are refused at
    the call."""
    if not c.is_self_dual():
        raise NeighborCodeError("base code is not self-dual")
    if target not in ("near-extremal", "extremal"):
        raise ValueError(f"unknown target class {target!r}")
    if budget < 1:
        raise ValueError("a sweep needs a budget of at least 1 (CLI: --sweep)")
    if registry is None:
        registry = load_registry()
    d = near_extremal_weight(c.n) if target == "near-extremal" else ms_bound(c.n)
    rng = random.Random(f"{seed}")
    windows = (_neighbor_seeds(c, rng, min(_STACK, budget - start))
               for start in range(0, budget, _STACK))
    return (make_finding(registry, "neighbor", c.n, d, alpha, x=tuple(x.tolist()),
                         parent=parent_label)
            for seeds in windows
            for x, alpha in zip(seeds, _settle(_tile_stack(_neighbors(c, seeds)[1], 0), d))
            if alpha is not None)


def _randrange3(rng: random.Random, count: int) -> tuple[np.ndarray, np.ndarray]:
    """The next count values of rng.randrange(3), as uint8, and for each the
    number of rng's 32-bit words read up to it.  CPython's randrange(3)
    takes a word's top two bits and redraws on 3.  The words are only
    peeked: rng is left as it was, for the caller to advance."""
    state = rng.getstate()
    top = np.empty(0, np.uint8)
    pos = np.empty(0, np.intp)
    while len(pos) < count:
        w = (count - len(pos)) * 4 // 3 + 16  # a quarter of the words are redrawn
        words = np.frombuffer(rng.getrandbits(32 * w).to_bytes(4 * w, "little"), "<u4")
        top = np.concatenate((top, (words >> 30).astype(np.uint8)))
        pos = np.flatnonzero(top != 3)
    rng.setstate(state)
    return top[pos[:count]], pos[:count] + 1


def _neighbor_seeds(c: Code, rng: random.Random, count: int) -> np.ndarray:
    """The next count seeds, shaped (count, n) in int16, that a loop of one
    rng.randrange(3) per entry draws, redrawn on weight not divisible by 3
    or on a zero syndrome x G^T (x in c, its own dual), with rng left where
    that loop leaves it.  Each round tests the peeked values of about four
    attempts per seed still wanted; _STALL rounds raise
    InternalInconsistencyError."""
    basis = c._rows.astype(np.int16)
    seeds = np.empty((0, c.n), np.int16)
    for _ in range(_STALL):
        want = count - len(seeds)
        values, ends = _randrange3(rng, (4 * want + 16) * c.n)
        xs = values.reshape(-1, c.n).astype(np.int16)
        ok = (np.count_nonzero(xs, axis=1) % 3 == 0) & (xs @ basis.T % 3).any(axis=1)
        hits = np.flatnonzero(ok)[:want]
        seeds = np.concatenate((seeds, xs[hits]))
        used = hits[-1] + 1 if len(seeds) == count else len(xs)  # the loop's attempts
        rng.getrandbits(32 * int(ends[used * c.n - 1]))
        if len(seeds) == count:
            return seeds
    raise InternalInconsistencyError("rejection sampling stalled")


# -- novelty bookkeeping ----------------------------------------------------------


@dataclass(frozen=True)
class BetaStatus:
    beta: int
    prior_sets: tuple[str, ...]
    found_sets: tuple[str, ...]

    @property
    def known(self) -> bool:
        return bool(self.prior_sets or self.found_sets)


@dataclass(frozen=True)
class NoveltyReport:
    length: int
    statuses: tuple[BetaStatus, ...]
    partial_knowledge: bool
    unclassified: int  # findings whose alpha is not a multiple of 8

    def summary(self) -> str:
        lines = [f"novelty at length {self.length}:"]
        for s in self.statuses:
            matched = ", ".join(s.prior_sets + s.found_sets) or "none"
            tag = "known" if s.known else "NEW"
            lines.append(f"  beta={s.beta}: {tag} (sets: {matched})")
        if self.unclassified:
            lines.append(f"  {self.unclassified} finding(s) with alpha not divisible by 8")
        if self.partial_knowledge:
            lines.append(
                "  note: stored prior knowledge for this length is incomplete; "
                "'NEW' here only means absent from the carried sets"
            )
        return "\n".join(lines)


def novelty_report(
    findings: Sequence[Finding], length: int, registry: Registry | None = None
) -> NoveltyReport:
    """Partition the betas seen at the given length into known and new,
    citing the beta sets that matched."""
    if registry is None:
        registry = load_registry()
    sets = registry.sets_for_length(length)
    if not sets:
        raise RegistryError(f"no beta bookkeeping carried for length {length}")
    betas = sorted({f.beta for f in findings if f.n == length and f.beta is not None})
    unclassified = sum(1 for f in findings if f.n == length and f.beta is None)
    statuses = []
    for beta in betas:
        prior = tuple(sorted(g.name for g in sets if g.origin == "prior" and beta in g.beta8_members()))
        found = tuple(sorted(g.name for g in sets if g.origin == "found" and beta in g.beta8_members()))
        statuses.append(BetaStatus(beta, prior, found))
    return NoveltyReport(
        length=length,
        statuses=tuple(statuses),
        partial_knowledge=not registry.prior_knowledge_complete(length),
        unclassified=unclassified,
    )
