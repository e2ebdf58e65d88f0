"""Candidate enumeration and verified search over the reduced parameter space.

The search walks triples (r1, r2, r3) of first rows.  Structural constraints
cut the space down hard before any linear algebra happens:

- r1 is assembled from a pool of width-n blocks that are zero or start
  with 1, in non-increasing f-value order (f reads a vector as a base-3
  integer, first entry least significant);
- r2 is drawn from the dual of the block rows of r1, r3 from the dual of
  the block rows of r1 and r2, both with f-value at most that of the
  previous row;
- every row must have weight congruent to 2 mod 3 and at least d - 1.

Dual spaces are echelonized with pivots taken from the high end, so that
counting in base 3 over the coefficients visits dual vectors in exactly
ascending f order, and an f-value ceiling is a cut in that count, found by
bisection.  Exhaustive mode builds one dual space per r1, D1, lists its
members up to f(r1) in numpy batches and keeps the admissible ones, the r2
list, in one batched test.  The r3 space of an r2 is D1 cut down to the
rows orthogonal to r2's block rows, so the r3 of the i-th r2 are those of
the first i + 1 rows of the list whose cross identity with it holds: one
small product per r2, and no dual space of its own.  A sampled trial takes
for r2, and then r3, the first admissible one of a bounded number of
random draws from the dual of the rows above it.  Those draws are made
in one numpy batch per row from the words of the trial's Mersenne Twister
that a loop of scalar random.randrange(3) calls would read, and the
generator is then advanced past the draws that loop would have made, so a
sampled run is still a pure function of (plan, seed).  run_search
additionally prunes rows whose diagonal Gram identity fails and (exhaustive)
r1 choices whose n-row subcode already contains a word below the target
weight, then verifies the survivors end to end: each is built and checked
self-dual, and one covering scan over all of a unit's codes stacked
together settles their minimum weights and counts at the target weight
(weights._settle).

A run is a sequence of work units: one r1 in exhaustive mode, keyed by
f(r1), one trial in sampled mode, each trial drawing from its own generator
seeded by (plan seed, trial index).  A partition (index, total) takes every
total-th unit.  Units run inline with one worker or in a process pool with
more, and one merge builds their findings in unit order, so the output is
the same for any worker count.  A run in either mode can keep an
append-only checkpoint log of its merged units, which a rerun with any
worker count resumes.
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
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator, NamedTuple, Sequence

import numpy as np

from .errors import (
    InternalInconsistencyError,
    LengthMismatchError,
    NeighborCodeError,
    NeighborMembershipError,
    NeighborWeightError,
    RegistryError,
)
from .gf3 import Code, Gf3Vector, _code_from_echelon, _dual_rows
from .nega import (
    CodeSpec,
    _systematic_rows,
    block_row_vectors,
    build_generator,
    f_value,
    row_gram_is_two,
    vector_from_f,
)
from .registry import Registry, load_registry
from .weights import _CHUNK, _clears, _settle, ms_bound, near_extremal_weight

log = logging.getLogger(__name__)

_SAMPLE_TRIES_R1 = 64
_SAMPLE_TRIES_R23 = 1024


@dataclass(frozen=True)
class SearchPlan:
    """Everything that determines a search run.

    partition = (index, total) assigns this run a round-robin share of the
    r1 candidates (exhaustive) or trials (sampled).  budget is the number
    of sampled trials and is ignored in exhaustive mode.
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
            raise ValueError("sampled mode needs a budget of at least 1")

    @property
    def length(self) -> int:
        return 6 * self.block_size

    @property
    def target_min_weight(self) -> int:
        base = near_extremal_weight(self.length)
        return base + 3 if self.target == "extremal" else base

    def to_dict(self) -> dict:
        return {
            "block_size": self.block_size,
            "target": self.target,
            "mode": self.mode,
            "seed": self.seed,
            "partition": list(self.partition),
            "budget": self.budget,
        }


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
        spec = None
        if "r1" in rec:
            spec = CodeSpec.from_entry_rows([rec["r1"], rec["r2"], rec["r3"]])
        return cls(
            kind=rec["kind"],
            n=rec["n"],
            d=rec["d"],
            alpha=rec["alpha"],
            beta=rec["beta"],
            novelty=rec["novelty"],
            sets=tuple(rec.get("sets", ())),
            spec=spec,
            x=tuple(rec["x"]) if "x" in rec else None,
            parent=rec.get("parent"),
        )


def read_findings(lines) -> list[Finding]:
    """Parse a findings stream (JSON lines, blanks ignored) back into
    Finding objects.  Inverse of printing to_record() one per line."""
    out = []
    for line in lines:
        line = line.strip()
        if line:
            out.append(Finding.from_record(json.loads(line)))
    return out


# -- building blocks ----------------------------------------------------------


class _PoolVec(NamedTuple):
    f: int
    vec: Gf3Vector
    weight: int


@functools.cache
def _block_pool(m: int) -> tuple[_PoolVec, ...]:
    """All width-m vectors allowed as r1 blocks (zero or leading 1), in
    ascending f order.  Cached: every sampled trial draws from it."""
    pool = []
    for f in range(3**m):
        v = vector_from_f(m, f)
        nz = v.first_nonzero()
        if nz is None or nz[1] == 1:
            pool.append(_PoolVec(f, v, v.weight()))
    return tuple(pool)


class _DualSpace:
    """Dual of a set of rows, echelonized from the high end.

    The span's one row reduction gives that basis in closed form: the
    columns off its pivots are the dual's pivots from the high end (see
    gf3._dual_rows).  Basis row i ends in a 1 at its pivot, where every
    other basis row is 0, and the pivots fall strictly with i.  So member
    number k, whose base-3 digit j is the coefficient of basis[t - 1 - j],
    has f-value strictly rising in k: the coefficient counter is the f
    order.  Exhaustive mode takes a prefix of that order in batches
    (members); a sampled trial takes its random members in one batch
    (draws)."""

    def __init__(self, span_rows: Sequence[Gf3Vector], width: int):
        self.width = width
        # pivot positions strictly descending
        self.basis = _dual_rows(Code(width, list(span_rows)))[::-1]

    def member(self, k: int) -> Gf3Vector:
        """Member number k, for 0 <= k < 3^len(basis)."""
        v = Gf3Vector.zeros(self.width)
        for u in reversed(self.basis):
            k, c = divmod(k, 3)
            v = v + u.scale(c)
        return v

    def count(self, limit: int) -> int:
        """How many members, the zero member among them, have f-value at
        most limit >= 0: bisection over the counter, with exact f-values."""
        lo, hi = 1, 3 ** len(self.basis)  # members below lo pass, from hi on fail
        while lo < hi:
            mid = (lo + hi) // 2
            if f_value(self.member(mid)) <= limit:
                lo = mid + 1
            else:
                hi = mid
        return lo

    def members(self, limit: int) -> Iterator[np.ndarray]:
        """The members with f-value at most limit, the zero member first,
        in ascending f order, as (rows, width) int8 entry arrays of at most
        weights._CHUNK rows each.

        A table holds the combinations of the low basis rows, up to one
        batch of them; each batch is that table plus one combination of
        the high basis rows, the batches taken in counter order."""
        count = self.count(limit)
        low = np.zeros((1, self.width), np.int8)
        for u in reversed(self.basis):  # least significant digit first
            if len(low) >= count or 3 * len(low) > _CHUNK:
                break
            row = np.array(u.entries(), np.int8)
            low = np.concatenate([(low + c * row) % 3 for c in range(3)])
        for start in range(0, count, len(low)):
            high = np.array(self.member(start).entries(), np.int8)  # low digits 0
            yield (low[: count - start] + high) % 3

    def draws(self, rng: random.Random, count: int) -> tuple[np.ndarray, np.ndarray]:
        """count random dual members as a (count, width) array of entries,
        and for each the number of rng's 32-bit words read up to its end.

        Member i is the sum of c_ij * basis[j], one coefficient per basis
        row, member after member.  A coefficient is the top two bits of one
        word, redrawn on 3, which is how CPython's random.randrange(3)
        reads the words, so the batch is what a loop of randrange draws
        gives.  The words are only peeked: rng is left as it was, for the
        caller to advance past the draws it used.
        """
        t = len(self.basis)
        need = count * t
        state = rng.getstate()
        top = np.empty(0, np.uint8)
        pos = np.empty(0, np.intp)
        while len(pos) < need:
            w = (need - len(pos)) * 4 // 3 + 16  # a quarter of the words are redrawn
            words = np.frombuffer(rng.getrandbits(32 * w).to_bytes(4 * w, "little"), "<u4")
            top = np.concatenate((top, (words >> 30).astype(np.uint8)))
            pos = np.flatnonzero(top != 3)
        rng.setstate(state)
        coeffs = top[pos[:need]].reshape(count, t).astype(np.int64)
        basis = np.array([u.entries() for u in self.basis], np.int64).reshape(t, self.width)
        ends = pos[t - 1:need:t] + 1 if t else np.zeros(count, np.intp)
        return coeffs @ basis % 3, ends


def _weight_passes(w: int, d: int) -> bool:
    """The row-weight rule: 2 mod 3 and at least d - 1."""
    return w % 3 == 2 and w >= d - 1


def _may_be_admissible(vals: np.ndarray, d: int, limit: int) -> np.ndarray:
    """Which rows of a (draws, width) entry array have a leading 1, pass the
    row-weight rule (_weight_passes) and have f-value at most limit: the
    necessary part of the row predicate, tested on a whole batch.  f is
    compared digit by digit from the most significant end, which is exact
    at every width."""
    rows = np.arange(len(vals))
    nz = vals != 0
    weight = nz.sum(axis=1)
    lead = vals[rows, nz.argmax(axis=1)]
    width = vals.shape[1]
    digits = np.array([limit // 3**i % 3 for i in range(width)])
    diff = vals != digits
    top = width - 1 - diff[:, ::-1].argmax(axis=1)  # the highest differing digit
    f_ok = ~diff.any(axis=1) | (vals[rows, top] < digits[top])
    return (lead == 1) & (weight % 3 == 2) & (weight >= d - 1) & f_ok


@functools.cache
def _negashift_table(m: int, width: int) -> tuple[np.ndarray, np.ndarray]:
    """Where the j-fold blockwise negashift of a width-m-block row takes
    each entry from, and its sign: shifted[i] = sign[j, i] * row[index[j, i]]
    for j < m."""
    pos = np.arange(width) % m
    j = np.arange(m)[:, None]
    index = np.arange(width) - pos + (pos - j) % m
    return index, np.where(pos < j, -1, 1).astype(np.int8)


def _row_pair_grams(a: np.ndarray, b: np.ndarray, m: int) -> np.ndarray:
    """nega.row_pair_gram(m, a[k], b[k]) for every row k of two int8 entry
    arrays, or of a[k] against b when b is a single row, as an (m, rows)
    array: entry (j, k) dots a[k] with the j-fold blockwise negashift of
    b[k] (or b).  The sums of 3m products of absolute value up to 4
    overflow int8 past m = 10, so they run in int16, or in float32 to use
    one BLAS product for a single b: both exact below m = 2730."""
    index, sign = _negashift_table(m, a.shape[-1])
    shifted = b[..., index] * sign
    if b.ndim == 1:
        return np.matmul(shifted, a.T, dtype=np.float32).astype(np.int16) % 3
    return np.matmul(shifted, a[..., None], dtype=np.int16)[..., 0].T % 3


def _sample_row(space: _DualSpace, rng: random.Random, d: int, limit: int,
                admissible: Callable[[Gf3Vector, int], bool]) -> Gf3Vector | None:
    """The first of _SAMPLE_TRIES_R23 random members of space for which
    admissible(v, limit) holds, or None.

    The batch prefilter (_may_be_admissible) spares the scalar predicate
    the draws that cannot pass; it runs on the rest in draw order.  rng
    ends past the draws up to the one taken, or past all of them: where a
    loop of scalar randrange draws would leave it.
    """
    vals, ends = space.draws(rng, _SAMPLE_TRIES_R23)
    found, used = None, ends[-1]
    for i in np.flatnonzero(_may_be_admissible(vals, d, limit)):
        v = Gf3Vector(vals[i].tolist())
        if admissible(v, limit):
            found, used = v, ends[i]
            break
    rng.getrandbits(32 * int(used))
    return found


def _d_prune_survives(spec_r1: Gf3Vector, m: int, d: int) -> bool:
    """Whether the subcode spanned by the n full generator rows built from
    r1 clears the target weight.  Those rows are (e_i | block row i), so the
    subcode sits inside every completed code; a light word here dooms all of
    them."""
    subcode = _code_from_echelon(6 * m, _systematic_rows(m, [spec_r1]))
    return _clears(subcode, d)


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
    for x, y, z in itertools.combinations_with_replacement(_block_pool(m), 3):
        if not _weight_passes(x.weight + y.weight + z.weight, d):
            continue
        if rank % total == index:
            yield z.f + shift * y.f + shift * shift * x.f  # blocks z, y, x: non-increasing f
        rank += 1


def _unit_specs(plan: SearchPlan, unit: int, *, verified: bool) -> Iterator[CodeSpec]:
    """The specs of one unit that pass the structural constraints, in
    ascending (f(r2), f(r3)) order.

    Exhaustive mode takes r1 = vector_from_f(3n, unit) and every admissible
    r2, r3.  The r3 space of an r2 is the dual D1 of r1's block rows cut
    down to the rows orthogonal to r2's block rows, under the ceiling
    f(r2) <= f(r1), and r2 and r3 pass the same row predicate.  So the r3
    of an r2 are admissible r2 themselves: one batched walk over D1
    (_DualSpace.members) lists those in ascending f, and the r3 of the
    i-th are those of the first i + 1 whose cross identity with it,
    row_pair_gram(r3, r2) = 0, holds.

    A sampled trial draws r1 from the block pool with the generator seeded
    by (plan seed, unit), redrawn on a failed weight or Gram check at most
    _SAMPLE_TRIES_R1 times, then takes the first admissible one of at most
    _SAMPLE_TRIES_R23 random dual members for r2, and again for r3
    (_sample_row: one batch of draws each, after which the generator
    stands where the scalar draws would leave it).

    verified adds the diagonal Gram prune to every row and, in exhaustive
    mode, the minimum-weight prune of r1 (sound: they only drop candidates
    that could never verify).
    """
    m = plan.block_size
    width = 3 * m
    d = plan.target_min_weight
    if plan.mode == "exhaustive":
        r1 = vector_from_f(width, unit)
        if verified and not (row_gram_is_two(m, r1) and _d_prune_survives(r1, m, d)):
            return
        limit = f_value(r1)
        kept = []
        for vals in _DualSpace(block_row_vectors(m, r1), width).members(limit):
            vals = vals[_may_be_admissible(vals, d, limit)]
            if verified:
                gram = _row_pair_grams(vals, vals, m)
                vals = vals[(gram[0] == 2) & ~gram[1:].any(axis=0)]
            kept.append(vals)
        rows = np.concatenate(kept)
        vecs = [Gf3Vector(r) for r in rows.tolist()]
        for i, r2 in enumerate(vecs):
            cross = _row_pair_grams(rows[: i + 1], rows[i], m)
            for k in np.flatnonzero(~cross.any(axis=0)):
                yield CodeSpec(m, r1, r2, vecs[k])
        return

    rng = random.Random(f"{plan.seed}:{unit}")
    pool = _block_pool(m)
    for _ in range(_SAMPLE_TRIES_R1):  # three blocks in non-increasing f order
        picks = sorted(
            (pool[rng.randrange(len(pool))] for _ in range(3)),
            key=lambda p: p.f,
            reverse=True,
        )
        r1 = picks[0].vec.concat(picks[1].vec).concat(picks[2].vec)
        if _weight_passes(sum(p.weight for p in picks), d) and (
                not verified or row_gram_is_two(m, r1)):
            break
    else:
        return

    def admissible(v: Gf3Vector, limit: int) -> bool:
        """The row predicate: a leading 1, the row-weight rule, f-value at
        most limit, and the Gram identity (verified)."""
        lead = v.first_nonzero()
        return (lead is not None and lead[1] == 1 and _weight_passes(v.weight(), d)
                and f_value(v) <= limit and (not verified or row_gram_is_two(m, v)))

    span1 = block_row_vectors(m, r1)
    r2 = _sample_row(_DualSpace(span1, width), rng, d, f_value(r1), admissible)
    if r2 is None:
        return
    space = _DualSpace(span1 + block_row_vectors(m, r2), width)
    r3 = _sample_row(space, rng, d, f_value(r2), admissible)
    if r3 is not None:
        yield CodeSpec(m, r1, r2, r3)


# -- public operations ----------------------------------------------------------


def enumerate_candidates(plan: SearchPlan) -> Iterator[CodeSpec]:
    """Stream the specs passing the structural constraints alone.

    No self-duality or weight filtering happens here; exhaustive mode covers
    the plan's partition completely in ascending (f(r1), f(r2), f(r3))
    order, sampled mode draws with the plan's seeded generator.
    """
    for unit in _units(plan):
        yield from _unit_specs(plan, unit, verified=False)


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


def _run_unit(plan: SearchPlan, unit: int) -> list[tuple[CodeSpec, int]]:
    """(spec, alpha) for each spec of one unit that verifies.  beta sets and
    novelty are left to the merge, which holds the caller's registry.

    Every admissible spec is built and checked self-dual, then one stacked
    covering scan (weights._settle) settles d and alpha for all of them."""
    specs = list(_unit_specs(plan, unit, verified=True))
    codes = [build_generator(spec) for spec in specs]
    if not all(code.is_self_dual() for code in codes):
        raise InternalInconsistencyError("candidate passed all identities but is not self-dual")
    alphas = _settle(codes, plan.target_min_weight)
    return [(spec, alpha) for spec, alpha in zip(specs, alphas) if alpha is not None]


def _map_units(plan: SearchPlan, units: Iterator[int], workers: int) -> Iterator[list]:
    """_run_unit over the units, results in unit order.

    The pool holds at most one process per worker, per core and per pending
    unit; with one process the units run inline.  It runs a window of four
    units per process ahead of the merge, where Executor.map would submit
    every unit up front: one future per r1, millions at length 36.
    """
    head = list(itertools.islice(units, min(workers, os.cpu_count() or 1)))
    units = itertools.chain(head, units)
    if len(head) <= 1:
        for unit in units:
            yield _run_unit(plan, unit)
        return
    with ProcessPoolExecutor(max_workers=len(head)) as pool:
        window: collections.deque = collections.deque()
        for unit in units:
            window.append(pool.submit(_run_unit, plan, unit))
            if len(window) == 4 * len(head):
                yield window.popleft().result()
        while window:
            yield window.popleft().result()


def _write_line(path: Path, doc: dict) -> None:
    """Replace path atomically by one JSON line."""
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(json.dumps(doc) + "\n")
    os.replace(tmp, path)


class _CheckpointLog:
    """The append-only checkpoint of a run; with no path it records nothing.

    The first line is the header {"version": 2, "plan": ...}.  Each merged
    unit appends and flushes one line {"unit": ..., "findings": [...]}, the
    unit being f(r1) (exhaustive) or the trial index (sampled), so a killed
    run loses only the units not yet merged.  A finished run's log is
    replaced by the one line {"version": 2, "plan": ..., "complete": true,
    "findings": [...]} holding the merged stream.  Reading validates the
    header; a final line torn by a kill is dropped, and cut off before the
    next append.
    """

    def __init__(self, path: Path | None, plan: SearchPlan):
        self.path = path
        self.header = {"version": 2, "plan": plan.to_dict()}
        self.done: dict[int, list[dict]] = {}
        self.complete: list[dict] | None = None
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
        if header.get("complete"):
            self.complete = header["findings"]
        for line in lines[1:]:
            rec = json.loads(line)
            self.done[rec["unit"]] = rec["findings"]

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

    def append(self, unit: int, findings: list[Finding]) -> None:
        if self._file is None:
            return
        records = [f.to_record() for f in findings]
        self._file.write(json.dumps({"unit": unit, "findings": records}) + "\n")
        self._file.flush()

    def finish(self, stream: list[Finding]) -> None:
        if self._file is None:
            return
        self._file.close()
        records = [f.to_record() for f in stream]
        _write_line(self.path, {**self.header, "complete": True, "findings": records})


def _merge(
    plan: SearchPlan, registry: Registry, workers: int, ckpt: _CheckpointLog
) -> Iterator[Finding]:
    """Findings unit by unit: logged units replayed, the rest run and built
    with the caller's registry.  Exhaustive findings stream in unit order;
    sampled ones are deduplicated and sorted at the end."""
    if ckpt.complete is not None:
        yield from map(Finding.from_record, ckpt.complete)
        return
    stream: list[Finding] = []
    sampled = plan.mode == "sampled"
    pending = (u for u in _units(plan) if u not in ckpt.done)
    with ckpt, contextlib.closing(_map_units(plan, pending, workers)) as results:
        for unit in _units(plan):
            if unit in ckpt.done:
                findings = [Finding.from_record(r) for r in ckpt.done[unit]]
            else:
                findings = [
                    make_finding(registry, "spec", plan.length, plan.target_min_weight,
                                 alpha, spec=spec)
                    for spec, alpha in next(results)
                ]
                ckpt.append(unit, findings)
            stream.extend(findings)
            if not sampled:
                yield from findings
        if sampled:  # a spec drawn by several trials counts once
            stream = sorted({f.spec: f for f in stream}.values(), key=Finding.sort_key)
        ckpt.finish(stream)
    if sampled:
        yield from stream


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

    Block sizes with no self-dual codes at all (odd sizes: the code length
    is then 6 mod 12, and self-dual codes need length 0 mod 4) return an
    empty stream immediately.

    A run with a checkpoint logs each merged unit with its findings: each
    r1 (exhaustive) or each trial (sampled).  A rerun with the same plan and
    file, and any worker count, replays the logged units and computes only
    the rest, so the stream is the uninterrupted one; a complete log
    replays the finished stream without running a unit.  A checkpoint
    written for another plan or in an unknown format and workers < 1 are
    refused when run_search is called, before any work starts.
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


def neighbor(c: Code, x: Gf3Vector) -> Code:
    """The self-dual code spanned by x and the subcode of c orthogonal to x.

    Requires wt(x) divisible by 3 (so x is self-orthogonal), x outside c,
    and c itself self-dual; each violated clause raises its own error.
    """
    if len(x) != c.n:
        raise LengthMismatchError(f"vector length {len(x)} != code length {c.n}")
    if x.weight() % 3 != 0:
        raise NeighborWeightError(f"wt(x) = {x.weight()} is not divisible by 3")
    if not c.is_self_dual():
        raise NeighborCodeError("base code is not self-dual")
    if c.contains(x):
        raise NeighborMembershipError("x lies in the code; the neighbor would be c itself")

    scored = [(b, b.dot(x)) for b in c.basis]
    kept = [b for b, s in scored if s == 0]
    crossing = [(b, s) for b, s in scored if s != 0]
    if not crossing:
        raise InternalInconsistencyError("x orthogonal to a self-dual code but not in it")
    p, sp = crossing[0]
    for b, s in crossing[1:]:
        # b - (s / sp) p; inverses in GF(3) are 1 -> 1, 2 -> 2
        kept.append(b + p.scale((-s * sp) % 3))
    out = Code(c.n, kept + [x])
    if out.k != c.k or not out.is_self_dual():
        raise InternalInconsistencyError("neighbor construction lost self-duality")
    return out


def neighbor_sweep(
    c: Code,
    budget: int,
    seed: int,
    *,
    target: str = "near-extremal",
    registry: Registry | None = None,
    parent_label: str | None = None,
) -> Iterator[Finding]:
    """Try budget random neighbor seeds and yield the findings in the
    target class.  Seeds are drawn uniformly over vectors with weight
    divisible by 3 and outside c, by rejection; the stream is a pure
    function of (c, budget, seed)."""
    if not c.is_self_dual():
        raise NeighborCodeError("base code is not self-dual")
    if target not in ("near-extremal", "extremal"):
        raise ValueError(f"unknown target class {target!r}")
    if registry is None:
        registry = load_registry()
    d = near_extremal_weight(c.n) if target == "near-extremal" else ms_bound(c.n)
    rng = random.Random(f"{seed}")
    for _ in range(budget):
        for _attempt in range(100000):
            x = Gf3Vector(rng.randrange(3) for _ in range(c.n))
            if x.weight() % 3 != 0:
                continue
            if c.contains(x):
                log.debug("rejected x inside the code")
                continue
            break
        else:
            raise InternalInconsistencyError("rejection sampling stalled")
        alpha = _settle([neighbor(c, x)], d)[0]
        if alpha is not None:
            yield make_finding(registry, "neighbor", c.n, d, alpha,
                               x=tuple(x.entries()), parent=parent_label)


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

    def new_betas(self) -> list[int]:
        return [s.beta for s in self.statuses if not s.known]

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
