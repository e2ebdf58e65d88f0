"""Minimum-weight engine against full enumeration on small codes."""

import collections
import functools
import itertools
import random
import time
import tracemalloc
from math import comb

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import naive
from nega3 import (
    Code,
    CodeSpec,
    ExtremalityClass,
    GuardError,
    Gf3Vector,
    SearchPlan,
    build_generator,
    classify,
    count_weight,
    extended_qr48,
    full_distribution,
    is_self_dual,
    min_weight,
    ms_bound,
    near_extremal_family,
    near_extremal_weight,
    neighbor,
    pless_symmetry,
    weights,
)
from nega3.search import _trial_rows, _unit_rows, _units


def _random_code(rng, n, nrows):
    rows = [Gf3Vector([rng.randrange(3) for _ in range(n)]) for _ in range(nrows)]
    return Code(n, rows), [r.entries() for r in rows]


class TestMinWeight:
    def test_tetracode(self):
        c = Code(4, [Gf3Vector([1, 0, 1, 1]), Gf3Vector([0, 1, 1, 2])])
        assert min_weight(c) == 3
        assert count_weight(c, 3) == 8

    def test_random_codes_vs_enumeration(self):
        rng = random.Random(97)
        for _ in range(120):
            n = rng.randrange(4, 14)
            nrows = rng.randrange(1, min(n, 7) + 1)
            code, rows = _random_code(rng, n, nrows)
            if code.k == 0:
                continue
            basis = [r.entries() for r in code.basis]
            assert min_weight(code) == naive.min_weight(basis)

    def test_counts_vs_enumeration(self):
        rng = random.Random(98)
        for _ in range(60):
            n = rng.randrange(4, 12)
            code, _ = _random_code(rng, n, rng.randrange(1, 6))
            if code.k == 0:
                continue
            dist = naive.distribution([r.entries() for r in code.basis])
            for w in range(1, n + 1):
                assert count_weight(code, w) == dist.get(w, 0), (n, code.k, w)

    def test_abort_below_returns_exact_when_above(self):
        c = Code(4, [Gf3Vector([1, 0, 1, 1]), Gf3Vector([0, 1, 1, 2])])
        # true d is 3; any early return below the cutoff must still be a
        # real weight, hence 3 itself
        assert min_weight(c, abort_below=4) == 3
        assert min_weight(c, abort_below=3) == 3

    def test_zero_dimension_rejected(self):
        with pytest.raises(ValueError):
            min_weight(Code(6, []))

    def test_count_weight_validation(self):
        c = Code(4, [Gf3Vector([1, 0, 1, 1])])
        with pytest.raises(ValueError):
            count_weight(c, 0)
        assert count_weight(c, 5) == 0


def _guarded_code():
    """A [44, 21] code that is not self-dual: past the full-distribution
    guard."""
    rng = random.Random(100)
    rows = [Gf3Vector([1 if j == i else rng.randrange(3) if j > 21 else 0
                       for j in range(44)]) for i in range(21)]
    code = Code(44, rows)
    assert code.k == 21 and not code.is_self_dual()
    return code


class TestOtherCodes:
    """Codes that are not self-dual are answered from their full
    distribution, under its guard."""

    def test_guard_refuses_before_any_work(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("work started past the guard")

        for name in ("_words", "_span_planes", "_sweep", "_tile_stack"):
            monkeypatch.setattr(weights, name, refuse)
        code = _guarded_code()
        for query in (lambda: min_weight(code), lambda: min_weight(code, abort_below=9),
                      lambda: count_weight(code, 9)):
            with pytest.raises(GuardError) as exc:
                query()
            assert exc.value.estimate == 3**21
        assert "min_weight" not in code._cache

    def test_count_cost_is_the_full_sweep(self):
        rng = random.Random(101)
        # the last one is [4, 1, 3], self-orthogonal but not self-dual
        codes = [_guarded_code(), *(_random_code(rng, n, n // 2)[0] for n in (6, 9, 12)),
                 Code(4, [Gf3Vector([1, 1, 1, 0])])]
        for code in codes:
            assert not code.is_self_dual()
            assert all(weights.count_cost(code, w) == 3**code.k for w in range(1, code.n + 1))


class TestComboChunks:
    @pytest.mark.parametrize("chunk", [1, 7, 64, weights._CHUNK])
    def test_lexicographic_across_chunk_boundaries(self, chunk):
        for k in range(13):
            for j in range(k + 1):
                chunks = list(weights._combo_chunks(k, j, chunk))
                assert all(1 <= len(c) <= chunk for c in chunks)
                got = [tuple(int(x) for x in row) for c in chunks for row in c]
                assert got == list(itertools.combinations(range(k), j)), (k, j)

    def test_first_chunk_of_a_large_table(self):
        # the whole C(30, 9) table would take 982 MB as intp
        start = time.perf_counter()
        first = next(weights._combo_chunks(30, 9))
        assert time.perf_counter() - start < 2.0
        assert len(first) <= weights._CHUNK
        want = itertools.islice(itertools.combinations(range(30), 9), len(first))
        assert [tuple(int(x) for x in row) for row in first] == list(want)

    def test_binomials_clipped_to_the_table(self):
        # C(67, 33) > 2^63 is in the binomials of (68, 66), whose table
        # holds only C(68, 66) = 2,278 subsets
        got = [tuple(int(x) for x in row) for c in weights._combo_chunks(68, 66) for row in c]
        assert got == list(itertools.combinations(range(68), 66))

    @pytest.mark.parametrize("k,j,ranks", [
        (64, 32, [0, 2**32 - 1, 2**32, 2**32 + 1, comb(64, 32) - 2, comb(64, 32) - 1]),
        (66, 33, [2**62 - 1, 2**62, 2**62 + 1, comb(66, 33) - 1]),
    ])
    def test_unrank_against_naive(self, k, j, ranks):
        rows = weights._unrank(k, j, np.array(ranks, dtype=np.int64))
        assert rows.dtype == np.min_scalar_type(k)
        assert [tuple(int(x) for x in row) for row in rows] == [
            naive.unrank_combination(k, j, r) for r in ranks]

    @pytest.mark.parametrize("k,width,top", [(12, 4, 8), (18, 6, 8), (24, 8, 8), (30, 10, 4)])
    def test_orbit_sums(self, k, width, top):
        # the representatives' orbit sizes cover every support once
        for j in range(1, top + 1):
            chunks = list(weights._supports(k, j, width))
            assert sum(int(mult.sum()) for _, mult, _ in chunks) == comb(k, j), (k, j)
            rows = np.concatenate([combos for combos, _, _ in chunks]).astype(np.intp)
            assert (np.diff(rows, axis=1) > 0).all()
            assert len(np.unique(rows, axis=0)) == len(rows)

    def test_table_build_peak(self):
        # C48's level-7 table: 43,263 orbit representatives of 346,104
        # subsets, unranked a chunk at a time
        weights._cached_supports.cache_clear()
        tracemalloc.start()
        try:
            weights._cached_supports(24, 7, 8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20


def _plane_rows(lo, hi):
    """The rows of one code's planes, shaped (k, lanes), as entry lists
    over whole lanes."""
    rows = []
    for row_lo, row_hi in zip(lo, hi):
        low, high = (int.from_bytes(p.tobytes(), "little") for p in (row_lo, row_hi))
        rows.append([(low >> c & 1) + 2 * (high >> c & 1) for c in range(64 * len(row_lo))])
    return rows


def _planes_by_hand(rows, lanes):
    """The two bit planes of entry lists (naive.plane), cut into 64-bit
    lanes: uint64 arrays shaped (len(rows), lanes)."""
    return [np.array([[naive.plane(r, v) >> 64 * t & (1 << 64) - 1 for t in range(lanes)]
                      for r in rows], dtype=np.uint64).reshape(len(rows), lanes) for v in (1, 2)]


def _packed_rows(rng, count, n):
    """count random rows of n columns, packed by hand: planes shaped
    (1, count, lanes)."""
    rows = [[rng.randrange(3) for _ in range(n)] for _ in range(count)]
    return [p[None] for p in _planes_by_hand(rows, -(-n // 64))]


@functools.cache
def _naive_walk(rows, j, width):
    """naive.walk_supports, computed once for every chunk size tested."""
    return naive.walk_supports(rows, j, width)


class TestWalk:
    """weights._words against tests/naive.py: the supports a level's
    batches yield, with their mults, are the words of the messages with
    first coefficient 1; and the pair sums the walk reads from j = 3 on."""

    @pytest.mark.parametrize("chunk", [5, weights._CHUNK])
    def test_supports_against_naive(self, monkeypatch, chunk):
        monkeypatch.setattr(weights, "_CHUNK", chunk)
        code = build_generator(_EXTREMAL24)  # k = 12, orbit width 4
        stack = weights._code_stack(code)
        # eight random rows of 70 columns: two lanes, and j = k at the end
        planes = _packed_rows(random.Random(70), 8, 70)
        cases = [(stack.lo[0], stack.hi[0], 0, 24), (stack.lo[0], stack.hi[0], 4, 24),
                 (*planes, 0, 70)]
        assert stack.width == 4 and planes[0].shape == (1, 8, 2)
        for lo, hi, width, n in cases:
            rows = tuple(tuple(row[:n]) for row in _plane_rows(lo[0], hi[0]))
            # heads of 1 to 6 rows: the head pair's two patterns read from
            # the pair table at j = 4, Gray steps after it from j = 5
            for j in range(1, 9):
                got = collections.Counter()
                for codes, support, mult in weights._words(lo, hi, j, width):
                    assert codes.tolist() == [0]
                    for lanes, m in zip(support[0], mult.tolist()):
                        got[int.from_bytes(lanes.tobytes(), "little"), m] += 1
                assert got == _naive_walk(rows, j, width), (width, j)

    def test_pair_sums_against_naive(self, registry):
        # stacks of several codes: C1 to C4 under both information sets
        # (k = 18, one lane), and three sets of eight random rows of 70
        # columns (two lanes)
        stack = _stacked([build_generator(registry.entry(f"C{i}").spec) for i in range(1, 5)])
        rng = random.Random(8)
        sets = [_packed_rows(rng, 8, 70) for _ in range(3)]
        cases = [(stack.lo[0], stack.hi[0]), (stack.lo[1], stack.hi[1]),
                 tuple(np.concatenate(p) for p in zip(*sets))]
        assert [lo.shape for lo, _ in cases] == [(4, 18, 1), (4, 18, 1), (3, 8, 2)]
        for lo, hi in cases:
            codes, k, lanes = lo.shape
            pairs = list(itertools.combinations(range(k), 2))
            assert weights._pair_index(k, np.array(pairs)).tolist() == [list(range(len(pairs)))] * 2
            table = weights._pair_sums(lo, hi)
            assert table.shape == (4, codes, len(pairs), lanes)
            for c in range(codes):
                rows = _plane_rows(lo[c], hi[c])
                plus, minus = (_plane_rows(table[s, c], table[s + 1, c]) for s in (0, 2))
                for p, (a, b) in enumerate(pairs):
                    assert plus[p] == naive.vadd(rows[a], rows[b]), (c, a, b)
                    assert minus[p] == naive.vadd(rows[a], naive.vneg(rows[b])), (c, a, b)


def _permuted(code, rng):
    """The code with its columns shuffled: the same weights, in a Code built
    by hand, so scanned and swept without orbits."""
    perm = list(range(code.n))
    rng.shuffle(perm)
    return Code(code.n, [Gf3Vector([r[p] for p in perm]) for r in code.basis])


def _width(code):
    """The orbit width the scans read off the code: the one
    build_generator recorded, else 0."""
    return code._cache.get("orbit_width", 0)


def _weights_at_d_and_d3(code):
    d = min_weight(code)
    return d, count_weight(code, d), count_weight(code, d + 3)


def _check_against_generic(code, seed):
    other = _permuted(code, random.Random(seed))
    got = _weights_at_d_and_d3(code)
    assert got == _weights_at_d_and_d3(other)
    if code.n == 12:
        dist = naive.distribution([r.entries() for r in code.basis])
        d = min(w for w in dist if w)
        assert got == (d, dist[d], dist.get(d + 3, 0))


def _check_sweep_against_generic(code, seed):
    got = full_distribution(code).counts
    assert got == full_distribution(_permuted(code, random.Random(seed))).counts
    if code.n == 12:
        assert got == naive.distribution([r.entries() for r in code.basis])


class TestOrbitPath:
    """Codes scanned and swept over negashift orbits against their
    column-permuted copies, which take the generic path."""

    @given(st.sampled_from([2, 4]), st.integers(0, 2**32))
    def test_random_specs(self, m, seed):
        # every spec's full distribution takes the orbit path; its scans
        # take it when the code is self-dual
        rng = random.Random(seed)
        rows = [[rng.randrange(3) for _ in range(3 * m)] for _ in range(3)]
        code = build_generator(CodeSpec.from_entry_rows(rows))
        _check_against_generic(code, seed)
        _check_sweep_against_generic(code, seed)

    @given(st.sampled_from([2, 4]), st.integers(0, 2**32))
    def test_random_self_dual_specs(self, m, seed):
        (spec,) = _self_dual_specs(m, seed, 1)
        assert is_self_dual(spec)
        code = build_generator(spec)
        assert _width(code) == weights._code_stack(code).width == m
        _check_against_generic(code, seed)
        _check_sweep_against_generic(code, seed)

    @pytest.mark.parametrize("label", ["C1", "C2", "C3", "C4", "C36"])
    def test_stored_length36_specs(self, registry, label):
        code = build_generator(registry.entry(label).spec)
        assert _width(code) == weights._code_stack(code).width == 6
        _check_against_generic(code, 36)


def _rows(code):
    return [r.entries() for r in code.basis]


class TestOrbitWidth:
    """The orbit width that build_generator records against the detection
    it replaces, on plain lists (naive.orbit_width); every other code is
    scanned and swept without orbits."""

    def test_registry_specs(self, registry):
        entries = [e for e in registry.entries.values() if e.spec is not None]
        assert len(entries) >= 27
        for entry in entries:
            code = build_generator(entry.spec)
            assert _width(code) == naive.orbit_width(_rows(code)) == entry.length // 6, entry.label

    @pytest.mark.parametrize("m", [2, 4, 6])
    def test_self_dual_pools(self, m):
        for spec in _self_dual_pool(m):
            code = build_generator(spec)
            assert _width(code) == naive.orbit_width(_rows(code)) == m

    def test_other_codes_take_no_orbits(self, registry):
        # a hand-built copy of C2 passes the detection, but takes no orbits
        base = build_generator(registry.entry("C2").spec)
        rng = random.Random(36)
        while True:
            x = Gf3Vector([rng.randrange(3) for _ in range(36)])
            if x.weight() % 3 == 0 and not base.contains(x):
                break
        copy = Code(base.n, list(base.basis))
        assert copy == base and naive.orbit_width(_rows(copy)) == 6
        for code in [neighbor(base, x), copy, extended_qr48(),
                     *(pless_symmetry(q) for q in (5, 11, 17, 23))]:
            assert code.is_self_dual()
            assert _width(code) == weights._code_stack(code).width == 0


# an extremal length-24 spec: d = 9, so it has no words of weight 6
_EXTREMAL24 = CodeSpec.from_entry_rows([
    [0, 1, 2, 2, 0, 1, 2, 0, 1, 2, 1, 0],
    [1, 0, 2, 1, 1, 0, 1, 0, 1, 1, 1, 0],
    [0, 1, 2, 0, 1, 2, 1, 2, 2, 0, 1, 0]])


def _self_dual_specs(m, seed, count):
    """The specs of the first count sampled trials from seed on, each a
    ring draw and so self-dual."""
    plan = SearchPlan(m, mode="sampled", seed=seed, budget=count)
    return [CodeSpec.from_entry_rows(rows.tolist()) for rows in _trial_rows(plan, range(count))]


@functools.cache
def _self_dual_pool(m):
    """Self-dual specs of length 6m: all six that the length-12 search
    verifies, else the first 30 of sampled trials."""
    if m == 2:
        plan = SearchPlan(2)
        return tuple(CodeSpec.from_entry_rows(rows.tolist())
                     for u in _units(plan) for rows in _unit_rows(plan, u))
    return tuple(_self_dual_specs(m, 0, 30))


def _tetracode_sum(m, rng):
    """A self-dual code of length 6m with words of weight 3: 3m/2 tetracodes
    side by side, its columns shuffled (_permuted), so scanned without
    orbits."""
    tetra = [[1, 0, 1, 1], [0, 1, 1, 2]]
    blocks = 6 * m // 4
    rows = [Gf3Vector([0] * (4 * b) + r + [0] * (4 * (blocks - 1 - b)))
            for b in range(blocks) for r in tetra]
    return _permuted(Code(6 * m, rows), rng)


def _mixed_stack(m, seed):
    """Codes of length 6m in a shuffled order: random (I | M) specs, most of
    them not self-dual and with words below the near-extremal weight;
    self-dual specs, and at length 24 the extremal spec, all with orbits;
    and self-dual codes without orbits, neighbors of those specs and sums
    of tetracodes, which have words of weight 3."""
    rng = random.Random(seed)
    specs = [CodeSpec.from_entry_rows([[rng.randrange(3) for _ in range(3 * m)]
                                       for _ in range(3)]) for _ in range(6)]
    specs += rng.sample(_self_dual_pool(m), 4)
    if m == 4:
        specs.append(_EXTREMAL24)
    codes = [build_generator(spec) for spec in specs]
    for base in codes[6:9]:  # three of the self-dual specs
        while True:
            x = Gf3Vector([rng.randrange(3) for _ in range(6 * m)])
            if x.weight() % 3 == 0 and not base.contains(x):
                break
        codes.append(neighbor(base, x))
    codes += [_tetracode_sum(m, rng) for _ in range(2)]
    rng.shuffle(codes)
    return codes


def _stacked(codes):
    """One stack of self-dual codes whose stacks of one (weights._code_stack)
    share k and the orbit width: those stacks joined along the codes axis."""
    stacks = [weights._code_stack(code) for code in codes]
    return stacks[0]._replace(lo=np.concatenate([s.lo for s in stacks], axis=1),
                              hi=np.concatenate([s.hi for s in stacks], axis=1))


def _settle_grouped(codes, d):
    """weights._settle for the self-dual codes, stacked by k and orbit
    width, at most weights._STACK codes to a stack (_stacked); every other
    code settled alone (_one_by_one), since only self-dual codes stack."""
    stacks = collections.defaultdict(list)
    out = {}
    for i, code in enumerate(codes):
        if code.is_self_dual():
            s = weights._code_stack(code)
            stacks[s.lo.shape, s.width].append(i)
        else:
            out[i] = _one_by_one(code, d)
    for members in stacks.values():
        for s in range(0, len(members), weights._STACK):
            part = members[s : s + weights._STACK]
            out.update(zip(part, weights._settle(_stacked([codes[i] for i in part]), d)))
    return [out[i] for i in range(len(codes))]


def _one_by_one(code, d):
    """What weights._settle promises for one code, from min_weight and
    count_weight."""
    return count_weight(code, d) if min_weight(code) == d else None


def _by_enumeration(dist, d):
    """The same from a full weight distribution."""
    return dist[d] if min(w for w in dist if w) == d else None


class TestStackedScan:
    """weights._settle over stacks of mixed self-dual codes
    (_settle_grouped), which settles d and A_d of many codes in stacked
    scans, against each code scanned alone and against full enumeration;
    the codes that are not self-dual are checked one at a time."""

    @given(st.sampled_from([2, 4]), st.integers(0, 2**32))
    def test_mixed_stacks_match_one_code_at_a_time(self, m, seed):
        codes = _mixed_stack(m, seed)
        if m == 2:
            dists = [naive.distribution([r.entries() for r in c.basis]) for c in codes]
        # the near-extremal weight, and the minimum weights of the codes,
        # so that codes of every kind have d as their minimum weight
        for d in sorted({near_extremal_weight(6 * m)} | {min_weight(c) for c in codes}):
            got = _settle_grouped(codes, d)
            assert got == [_one_by_one(c, d) for c in codes], d
            if m == 2:
                assert got == [_by_enumeration(dist, d) for dist in dists], d

    def test_a_stack_holds_every_outcome(self):
        # the stack without orbits holds codes that drop out, codes counted
        # at 6, and a hand-built copy of the extremal spec: A_6 = 0, so no
        # count either
        codes = _mixed_stack(4, 3) + [Code(24, list(build_generator(_EXTREMAL24).basis))]
        got = _settle_grouped(codes, 6)
        d = [min_weight(c) for c in codes]
        plain = [w for w, c in zip(d, codes) if c.is_self_dual() and not _width(c)]
        assert {min(w, 7) for w in plain} == {3, 6, 7} and plain[-1] == 9
        assert got[-1] is None
        assert all((a is not None) == (w == 6) for a, w in zip(got, d))
        assert sum(a is not None for a in got) >= 3

    @pytest.mark.parametrize("chunk,stack", [(1, 1), (3, 2), (7, 7), (weights._CHUNK, 4)])
    def test_small_chunks_and_stacks(self, monkeypatch, chunk, stack):
        codes = _mixed_stack(4, 11) + [build_generator(s) for s in _self_dual_pool(4)[:8]]
        want = _settle_grouped(codes, 6)
        walk = weights._words

        def bounded(lo, hi, j, width, alive=None):
            words = 1 << min(2, j - 1)  # per support
            for codes, support, mult in walk(lo, hi, j, width, alive):
                assert support.shape[:2] == (len(codes), len(mult))
                assert len(mult) % words == 0 and len(codes) * len(mult) <= chunk * words
                yield codes, support, mult

        monkeypatch.setattr(weights, "_CHUNK", chunk)
        monkeypatch.setattr(weights, "_STACK", stack)
        monkeypatch.setattr(weights, "_words", bounded)
        assert _settle_grouped(codes, 6) == want
        assert want == [_one_by_one(c, 6) for c in codes]


    @pytest.mark.parametrize("chunk,rows,stack", [(64, 5, 8), (7, 3, 19), (weights._CHUNK, 16, 64)])
    def test_row_cap_on_mixed_stacks(self, monkeypatch, chunk, rows, stack):
        # a stack of more than one code takes batches of at most the row cap
        # (or one support for each code), a stack of one at most _CHUNK;
        # codes that meet a light word leave their stack mid-walk
        codes = (_mixed_stack(4, 11) + _mixed_stack(4, 12)
                 + [build_generator(s) for s in _self_dual_pool(4)[:8]])
        want = [_one_by_one(c, 6) for c in codes]
        walk = weights._words
        shrunk = []

        def bounded(lo, hi, j, width, alive=None):
            cap = chunk if lo.shape[0] == 1 else min(chunk, rows)
            words = 1 << min(2, j - 1)  # per support
            for codes, support, mult in walk(lo, hi, j, width, alive):
                assert support.shape[:2] == (len(codes), len(mult))
                assert len(mult) % words == 0 and len(codes) * len(mult) <= max(cap, len(codes)) * words
                assert alive is None or alive[codes].all()
                shrunk.append(len(codes) < lo.shape[0])
                yield codes, support, mult

        monkeypatch.setattr(weights, "_CHUNK", chunk)
        monkeypatch.setattr(weights, "_STACK_ROWS", rows)
        monkeypatch.setattr(weights, "_STACK", stack)
        monkeypatch.setattr(weights, "_words", bounded)
        assert _settle_grouped(codes, 6) == want
        assert any(shrunk)

    def test_dropped_codes_leave_the_others_words_intact(self, monkeypatch):
        # at level 4 each run of supports gives two batches; codes cleared
        # after the first batch of a run still fill the second, and codes
        # cleared after either are gone from the next run, which is split
        # among the codes left: 7 supports give one to each of 6 or 4
        # codes, two to each of 3, and each support holds 4 words of each
        # batch; each code left still walks exactly its own words
        monkeypatch.setattr(weights, "_STACK_ROWS", 7)
        codes = [build_generator(s) for s in _self_dual_pool(4)[:6]]
        stack = _stacked(codes)
        lo, hi, width = stack.lo[0], stack.hi[0], stack.width
        assert width and {weights._code_stack(c).width for c in codes} == {width}

        def words(batches, alive=None, drops=()):
            seen, shapes, positions = collections.defaultdict(collections.Counter), [], []
            for n, (pos, support, mult) in enumerate(batches):
                assert support.shape[:2] == (len(pos), len(mult))
                shapes.append(support.shape[:2])
                positions.append(pos.tolist())
                for row, c in enumerate(pos.tolist()):
                    seen[c].update(zip(map(bytes, support[row]), mult.tolist()))
                for at, gone in drops:
                    if n == at:
                        alive[gone] = False
            return seen, shapes, positions

        alive = np.ones(len(codes), dtype=bool)
        got, shapes, positions = words(weights._words(lo, hi, 4, width, alive), alive,
                                       [(2, [0, 2]), (9, [4])])
        assert alive.tolist() == [False, True, False, True, False, True]
        assert shapes[:11] == [(6, 4)] * 4 + [(4, 4)] * 6 + [(3, 8)]
        assert positions[3] == list(range(6)) and positions[4] == [1, 3, 4, 5]
        assert positions[9] == [1, 3, 4, 5] and positions[10] == [1, 3, 5]
        assert {rows for codes, rows in shapes[11:]} <= {4, 8}  # the last run may be short
        for c in (1, 3, 5):
            alone, _, _ = words(weights._words(lo[c : c + 1], hi[c : c + 1], 4, width))
            assert got[c] == alone[0], c

    def test_a_code_out_mid_run_keeps_its_first_light_weight(self, monkeypatch):
        # k = 8, so level 4 is one run of C(8, 4) supports and two sign
        # patterns.  Code 0's first pattern holds r0 + r1 + r2 + r3 of weight
        # 14, below the floor of 20, and its second r4 - r5 + r6 + r7 of
        # weight 8: the code leaves the scan at the first, still fills the
        # second, and that lighter word must not replace its weight.  Both
        # sets are the same basis, and code 1 is random and stays.
        tails = np.array(random.Random(7).choices(range(3), k=2 * 8 * 56)).reshape(2, 8, 56)
        light = np.zeros((2, 56), dtype=tails.dtype)
        light[0, :10] = light[1, 10:14] = 1
        r = tails[0]
        r[3] = light[0] - r[0] - r[1] - r[2]
        r[7] = light[1] - r[4] + r[5] - r[6]
        rows = np.concatenate([np.broadcast_to(np.eye(8, dtype=tails.dtype), (2, 8, 8)), tails % 3], axis=2)
        stack = weights._Stack(*weights._planes(np.stack([rows, rows]).astype(np.int8)), 0)
        seen = []
        walk = weights._words

        def recording(lo, hi, j, width, alive=None):
            for pos, support, mult in walk(lo, hi, j, width, alive):
                seen.append((j, pos.tolist(), weights._weights_of(support).min(axis=1).tolist()))
                yield pos, support, mult

        monkeypatch.setattr(weights, "_words", recording)
        scan = weights._stack_counts(stack, 20, floor=20)
        assert min(w for j, _, least in seen if j < 4 for w in least) >= 20
        level4 = [(pos, least) for j, pos, least in seen if j == 4]
        assert [pos for pos, _ in level4[:2]] == [[0, 1], [0, 1]]
        assert [least[0] for _, least in level4[:2]] == [14, 8]
        assert all(pos == [1] for pos, _ in level4[2:])
        assert scan.kept.tolist() == [False, True] and scan.weight[0] == 14

    def test_stacked_neighbors_keep_memory_small(self, registry):
        # 64 neighbors of C2, in one stack of (I | A) forms without orbits,
        # walk levels of C(18, 4) supports: with batches of _CHUNK rows the
        # scan held about 10 MB at once, with the row cap about 1.2 MB, and
        # with the pair table beside the batches about 1.6 MB
        base = build_generator(registry.entry("C2").spec)
        rng = random.Random(64)
        codes = []
        while len(codes) < 64:
            x = Gf3Vector(rng.randrange(3) for _ in range(36))
            if x.weight() % 3 == 0 and not base.contains(x):
                codes.append(neighbor(base, x))
        for code in codes:  # the codes' own caches are not the scan's
            weights._code_stack(code)
        tracemalloc.start()
        try:
            got = _settle_grouped(codes, 9)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert any(a is not None for a in got)
        assert peak < 4 * 2**20


def _walked(monkeypatch, code, run, words=None):
    """The (level, set) passes of the covering scans that run() makes on
    code, in order, with run()'s result.  A pass's set is the information
    set whose planes it walks.  A words Counter, when given, gains for
    each pass the words its batches stand for: each word's mult, twice
    (for c and -c)."""
    stack = weights._code_stack(code)
    walked = []
    real = weights._words

    def recording(lo, hi, j, width, alive=None):
        walked.append(key := (j, next(i for i, s in enumerate(stack.lo) if np.array_equal(lo, s))))
        for codes, support, mult in real(lo, hi, j, width, alive):
            if words is not None:
                words[key] += 2 * len(codes) * int(mult.sum())
            yield codes, support, mult

    with monkeypatch.context() as patch:
        patch.setattr(weights, "_words", recording)
        result = run()
    return walked, result


def _check_scan_against_naive(code, dist):
    """min_weight, its kept count, count_weight at d and d + 3, the count
    scan itself at both weights, and its floor, against the distribution."""
    d = min(w for w in dist if w)
    assert min_weight(code) == d
    assert code._cache["count_at_min"] == dist[d]
    for w in (d, d + 3):
        assert count_weight(code, w) == dist.get(w, 0), w
        scan = weights._stack_counts(weights._code_stack(code), w, floor=1)
        assert scan.count[0] == dist.get(w, 0), w
    for t in (d - 1, d, d + 1):  # a code leaves the scan at a word below the floor
        scan = weights._stack_counts(weights._code_stack(code), t - 1, floor=t)
        assert scan.kept[0] == (t <= d), t


class TestPerSetBound:
    """The covering scan stops once the bound, raised after every
    information set, passes the weight it counts; min_weight settles d and
    A_d in that one scan."""

    def test_b280_ends_after_set_0_of_level_6(self, registry, monkeypatch):
        code = build_generator(registry.entry("B280").spec)
        walked, got = _walked(monkeypatch, code, lambda: (min_weight(code), count_weight(code, 12)))
        assert got == (12, 2240)
        assert walked == [(j, i) for j in range(1, 6) for i in (0, 1)] + [(6, 0)]

    def test_c1_walks_both_sets_at_level_4(self, registry, monkeypatch):
        code = build_generator(registry.entry("C1").spec)
        walked, got = _walked(monkeypatch, code, lambda: (min_weight(code), count_weight(code, 9)))
        assert got == (9, 48)
        assert walked == [(j, i) for j in range(1, 5) for i in (0, 1)]

    @pytest.mark.parametrize("label,w", [("C1", 9), ("C1", 12), ("B280", 12), ("B280", 15)])
    def test_count_cost_prices_the_passes_walked(self, registry, monkeypatch, label, w):
        code = build_generator(registry.entry(label).spec)
        stack = weights._code_stack(code)
        words = collections.Counter()
        walked, _ = _walked(monkeypatch, code, lambda: weights._stack_counts(stack, w, floor=1), words)
        assert weights.count_cost(code, w) == sum(comb(code.k, j) << j for j, _ in walked)
        # each pass's batches stand for every word of its level, no more
        assert all(words[pass_] == comb(code.k, pass_[0]) << pass_[0] for pass_ in walked)

    def test_self_dual_specs(self):
        for spec in _self_dual_pool(2):
            code = build_generator(spec)
            _check_scan_against_naive(code, naive.distribution([r.entries() for r in code.basis]))
        for spec in _self_dual_pool(4)[:10]:
            _check_scan_against_naive(build_generator(spec), full_distribution(build_generator(spec)).counts)

    @given(st.sampled_from([2, 4]), st.integers(0, 2**32))
    def test_neighbors(self, m, seed):
        rng = random.Random(seed)
        base = build_generator(rng.choice(_self_dual_pool(m)))
        while True:
            x = Gf3Vector([rng.randrange(3) for _ in range(6 * m)])
            if x.weight() % 3 == 0 and not base.contains(x):
                break
        code = neighbor(base, x)
        if m == 2:
            dist = naive.distribution([r.entries() for r in code.basis])
        else:
            dist = full_distribution(neighbor(base, x)).counts
        _check_scan_against_naive(code, dist)


def _packed(code):
    """The greedy information sets of a code of length at most 64
    (naive.greedy_sets), packed by hand as a stack of one without orbits:
    the reference the closed form is checked against.  Returned with the
    sets' pivots and deficits."""
    assert code.n <= 64
    sets = naive.greedy_sets(_rows(code))
    lo, hi = (np.stack([p[None] for p in planes]) for planes
              in zip(*(_planes_by_hand(rows, 1) for rows, _, _ in sets)))
    return weights._Stack(lo, hi, 0), ([pivots for _, pivots, _ in sets], [d for *_, d in sets])


def _assert_same_sets(stack, want):
    """Two stacks of one hold the same sets' planes."""
    for got, ref in ((stack.lo, want.lo), (stack.hi, want.hi)):
        assert np.array_equal(got, ref)


def _pivots_first(code):
    """A Code copy of code with its columns reordered pivots first."""
    pivots = set(code.pivots)
    perm = list(code.pivots) + [c for c in range(code.n) if c not in pivots]
    return Code(code.n, [Gf3Vector([r[p] for p in perm]) for r in code.basis])


def _d_and_counts(stack):
    """d, A_d and A_{d+3} of a stack of one, by its covering scans alone."""
    n = 2 * stack.lo.shape[2]
    scan = weights._stack_counts(stack, n, floor=1, least=True)
    d = int(scan.weight[0])
    return d, int(scan.count[0]), int(weights._stack_counts(stack, d + 3, floor=1).count[0])


def _halves(k):
    """The pivots and deficits of the two closed-form sets of a self-dual
    [2k, k] code with pivots 0 .. k - 1."""
    return [list(range(k)), list(range(k, 2 * k))], [0, 0]


class TestInformationSets:
    """The closed-form stack of self-dual codes (weights._code_stack through
    weights._tile_stack) against the greedy row reduction (_packed): the
    greedy sets of a self-dual code are its two systematic forms on
    complementary columns."""

    @pytest.mark.parametrize("m", [2, 4, 6])
    def test_self_dual_specs(self, m):
        # pivots 0 .. 3m - 1, so the closed form needs no reordering
        for spec in _self_dual_pool(m):
            code = build_generator(spec)
            assert code.is_self_dual()
            ref, sets = _packed(code)
            assert sets == _halves(3 * m)
            _assert_same_sets(weights._code_stack(code), ref)
            assert weights._code_stack(code).width == m

    @given(st.integers(0, 2**32))
    def test_neighbors(self, registry, seed):
        rng = random.Random(seed)
        base = build_generator(registry.entry("C2").spec)
        while True:
            x = Gf3Vector([rng.randrange(3) for _ in range(36)])
            if x.weight() % 3 == 0 and not base.contains(x):
                break
        code = neighbor(base, x)
        stack = weights._code_stack(code)
        _, (_, deficits) = _packed(code)
        assert stack.width == 0 and deficits == [0, 0]
        ref, sets = _packed(_pivots_first(code))
        assert sets == _halves(18)
        _assert_same_sets(stack, ref)
        # a column-permuted copy's greedy sets are complementary too, though
        # not the halves, and its scan gives the same counts
        other, (_, deficits) = _packed(_permuted(code, rng))
        assert deficits == [0, 0]
        assert _d_and_counts(stack) == _d_and_counts(other)

    @pytest.mark.parametrize("q", [None, 5, 11, 17, 23])
    def test_qr48_and_pless_codes(self, q):
        # pivots 0 .. k - 1, so the closed form needs no reordering
        code = extended_qr48() if q is None else pless_symmetry(q)
        assert code.is_self_dual() and code.pivots == tuple(range(code.k))
        stack = weights._code_stack(code)
        assert stack.width == 0
        ref, sets = _packed(code)
        assert sets == _halves(code.k)
        _assert_same_sets(stack, ref)
        if code.n <= 24:
            assert _d_and_counts(stack) == _d_and_counts(_packed(_permuted(code, random.Random(q)))[0])

    def test_self_dual_is_cached(self, registry):
        code = build_generator(registry.entry("C1").spec)
        assert code.is_self_dual()
        assert code._cache["self_dual"] is True
        assert not Code(36, list(code.basis[:17])).is_self_dual()


class TestFullDistribution:
    def test_matches_enumeration(self):
        rng = random.Random(99)
        for _ in range(40):
            n = rng.randrange(3, 12)
            code, _ = _random_code(rng, n, rng.randrange(1, 6))
            wp = full_distribution(code)
            want = naive.distribution([r.entries() for r in code.basis])
            assert {w: c for w, c in wp.counts.items() if c} == {
                w: c for w, c in want.items() if c
            }

    def test_word_total(self):
        c = Code(4, [Gf3Vector([1, 0, 1, 1]), Gf3Vector([0, 1, 1, 2])])
        wp = full_distribution(c)
        assert sum(wp.counts.values()) == 9

    def test_guard_on_large_dimension(self):
        rng = random.Random(100)
        rows = [Gf3Vector([1 if j == i else rng.randrange(3) if j > 21 else 0
                           for j in range(44)]) for i in range(21)]
        c = Code(44, rows)
        assert c.k == 21
        with pytest.raises(GuardError) as exc:
            full_distribution(c)
        assert exc.value.estimate == 3**21


def _span_words(rows, n):
    """Every combination of the rows, as plain lists, in the order of
    weights._span_planes: coefficient t is digit t of the index in base 3."""
    words = [[0] * n]
    for r in rows:
        words = words + [naive.vadd(w, r) for w in words] + [naive.vadd(w, naive.vscale(r, 2)) for w in words]
    return words


class TestLaneEdges:
    """The lane-major sweep and the one-lane weights at the 64-column lane
    edge."""

    @pytest.mark.parametrize("n", [64, 65, 70])
    def test_generic_path(self, n):
        rng = random.Random(n)
        code, _ = _random_code(rng, n, 5)
        assert not _width(code)
        assert full_distribution(code).counts == naive.distribution([r.entries() for r in code.basis])

    @pytest.mark.parametrize("n", [64, 65, 70])
    def test_orbit_path_sweep(self, n):
        # the orbit path sweeps only first-half rows of nonzero mult, each
        # histogram scaled by its mult; no orbit-path code has a lane edge
        # at a dimension naive enumeration reaches (n = 66 needs k >= 22),
        # so the sweep gets a mult with zeros here directly
        rng = random.Random(n)
        first = [[rng.randrange(3) for _ in range(n)] for _ in range(3)]
        second = [[rng.randrange(3) for _ in range(n)] for _ in range(3)]
        lo_a, hi_a = weights._span_planes(np.array(first, np.int8))
        lo_b, hi_b = weights._span_planes(np.array(second, np.int8))
        mult = np.array([rng.choice([0, 1, 2, 5]) for _ in range(len(lo_a))], dtype=np.int64)
        got = weights._sweep(lo_a, hi_a, lo_b.T.copy(), hi_b.T.copy(), mult, n)
        want = [0] * (n + 1)
        for a, m in zip(_span_words(first, n), mult):
            for b in _span_words(second, n):
                want[naive.vweight(naive.vadd(a, b))] += int(m)
        assert got.tolist() == want

    @pytest.mark.parametrize("lanes", [1, 2, 3])
    def test_weights_of_against_the_summed_form(self, lanes):
        gen = np.random.default_rng(lanes)
        lo = gen.integers(0, 2**64, size=(3, 50, lanes), dtype=np.uint64)
        hi = gen.integers(0, 2**64, size=(3, 50, lanes), dtype=np.uint64) & ~lo
        want = np.bitwise_count(lo | hi).sum(axis=-1)
        assert weights._weights_of(lo | hi).tolist() == want.tolist()
        assert weights._weights_of(lo[0] | hi[0]).tolist() == want[0].tolist()


def _random_planes(gen, count, n):
    """count random words of length n as (lo, hi) planes shaped (count, lanes)."""
    lanes = -(-n // 64)
    used = np.array([(1 << min(64, n - 64 * t)) - 1 for t in range(lanes)], dtype=np.uint64)
    lo = gen.integers(0, 2**64, size=(count, lanes), dtype=np.uint64) & used
    hi = gen.integers(0, 2**64, size=(count, lanes), dtype=np.uint64) & used & ~lo
    return lo, hi, used


def _per_row_sweep(lo_a, hi_a, lo_b, hi_b, mult, n):
    """_sweep's histogram with one plain bincount per row of nonzero mult."""
    counts = np.zeros(n + 1, dtype=np.int64)
    for i in np.flatnonzero(mult):
        support = (lo_a[i, :, None] ^ hi_b) | (hi_a[i, :, None] ^ lo_b)
        counts += mult[i] * np.bincount(np.bitwise_count(support).sum(axis=0), minlength=n + 1)
    return counts


class TestSweepPairs:
    """_sweep bins the weights of two rows of one mult as one index
    w0 (n + 1) + w1 and reads both histograms off that table's marginals;
    a class's unpaired row gets a bincount of its own.  Against one plain
    bincount per row, at one lane (36, 63, 64) and two (70)."""

    @pytest.mark.parametrize("n", [36, 63, 64, 70])
    @pytest.mark.parametrize("seed", range(3))
    def test_random_mults(self, n, seed):
        # classes of odd and even size, mult-0 rows interleaved among them
        gen = np.random.default_rng([n, seed])
        lo_a, hi_a, _ = _random_planes(gen, 29, n)
        lo_b, hi_b, _ = _random_planes(gen, 40, n)
        mult = gen.choice([0, 1, 2, 3, 7, 12], size=len(lo_a)).astype(np.int64)
        lo_b, hi_b = lo_b.T.copy(), hi_b.T.copy()
        got = weights._sweep(lo_a, hi_a, lo_b, hi_b, mult, n)
        assert got.tolist() == _per_row_sweep(lo_a, hi_a, lo_b, hi_b, mult, n).tolist()

    @pytest.mark.parametrize("n", [36, 63, 64, 70])
    @pytest.mark.parametrize("size", [1, 2, 3, 4])
    def test_weights_zero_and_n(self, n, size):
        # a class of size rows in which every row is all 1s or all 2s, so
        # against a zero column each sum weighs n, the largest index
        # n (n + 1) + n for a pair, and against the column of all 2s each
        # all-1s row sums to weight 0, index 0 for a pair of them; mult-0
        # rows sit between the class's rows
        gen = np.random.default_rng(n + size)
        lo_a, hi_a, used = _random_planes(gen, 2 * size + 1, n)
        lo_b, hi_b, _ = _random_planes(gen, 6, n)
        mult = np.zeros(len(lo_a), dtype=np.int64)
        for r in range(size):
            at = 2 * r + 1
            mult[at] = 5
            lo_a[at], hi_a[at] = (used, 0) if r % 3 < 2 else (0, used)
        lo_b[2], hi_b[2] = 0, 0
        lo_b[4], hi_b[4] = 0, used
        lo_b, hi_b = lo_b.T.copy(), hi_b.T.copy()
        got = weights._sweep(lo_a, hi_a, lo_b, hi_b, mult, n)
        want = _per_row_sweep(lo_a, hi_a, lo_b, hi_b, mult, n)
        assert got.tolist() == want.tolist()
        assert got[0] and got[n] and got.sum() == 5 * size * 6

    def test_no_rows(self):
        lo, hi, _ = _random_planes(np.random.default_rng(0), 4, 36)
        got = weights._sweep(lo, hi, lo.T.copy(), hi.T.copy(), np.zeros(4, dtype=np.int64), 36)
        assert got.tolist() == [0] * 37


def _negashift_orbits(b):
    """Every negashift orbit of F_3^b, enumerated one message at a time."""
    orbits = {}
    for x in itertools.product(range(3), repeat=b):
        orbit, y = set(), x
        while y not in orbit:
            orbit.add(y)
            y = ((-y[-1]) % 3,) + y[:-1] if b else y
        orbits[frozenset(orbit)] = None
    return list(orbits)


def _index(x):
    return sum(v * 3**t for t, v in enumerate(x))


class TestOrbitSweep:
    """full_distribution over one first-block message per negashift orbit;
    TestOrbitPath also checks it on random specs."""

    @pytest.mark.parametrize("b", range(2, 11))
    def test_orbit_sizes_sum_to_the_space(self, b):
        sizes = weights._negashift_orbit_sizes(b)
        assert len(sizes) == 3**b
        assert sizes.sum() == 3**b
        assert set(sizes[sizes > 0].tolist()) <= {r for r in range(1, 2 * b + 1) if 2 * b % r == 0}

    @pytest.mark.parametrize("b", range(0, 5))
    def test_orbit_sizes_against_enumeration(self, b):
        want = [0] * 3**b
        for orbit in _negashift_orbits(b):
            want[min(_index(x) for x in orbit)] = len(orbit)
        assert weights._negashift_orbit_sizes(b).tolist() == want

    @pytest.mark.parametrize("b", range(1, 11))
    def test_orbit_count_equals_the_table(self, b):
        assert weights._negashift_orbit_count(b) == (weights._negashift_orbit_sizes(b) > 0).sum()

    def test_guard_prices_the_orbit_sweep(self, registry):
        code = build_generator(registry.entry("C48").spec)
        assert _width(code) == 8
        with pytest.raises(GuardError, match=r"411 x 3\^16 = 1\.77e\+10 of its 3\^24 "
                           r"codewords \(roughly 68s\)") as exc:
            full_distribution(code)
        assert exc.value.estimate == 411 * 3**16

    # words of weight 9: eight times beta for the near-extremal C1-C4, none
    # for the extremal C36
    @pytest.mark.parametrize("label,alpha", [
        ("C1", 48), ("C2", 56), ("C3", 80), ("C4", 728), ("C36", 0)])
    def test_stored_length36_specs_match_their_family_member(self, registry, label, alpha):
        code = build_generator(registry.entry(label).spec)
        assert _width(code) == 6
        want = near_extremal_family(36).at(alpha)
        got = full_distribution(code).counts
        assert [got.get(e, 0) for e in range(37)] == [want.get(e, 0) for e in range(37)]


class TestBoundsAndClasses:
    def test_bound_values(self):
        assert [ms_bound(n) for n in (12, 24, 36, 48, 60, 72)] == [6, 9, 12, 15, 18, 21]
        assert [near_extremal_weight(n) for n in (12, 36, 48)] == [3, 9, 12]

    def test_classify(self, registry):
        assert classify(build_generator(registry.entry("C1").spec)) is ExtremalityClass.NEAR_EXTREMAL
        assert classify(build_generator(registry.entry("C36").spec)) is ExtremalityClass.EXTREMAL

    def test_classify_neither(self):
        # nine tetracodes side by side: length 36, d stays 3
        tetra = [[1, 0, 1, 1], [0, 1, 1, 2]]
        rows = []
        for b in range(9):
            for r in tetra:
                rows.append(Gf3Vector([0] * (4 * b) + r + [0] * (4 * (8 - b))))
        c = Code(36, rows)
        assert c.is_self_dual()
        assert classify(c) is ExtremalityClass.NEITHER

    @pytest.mark.parametrize("rows", [[[1] * 12], [[1, 1, 1, 0]],
                                      [[1, 0, 1, 1], [0, 1, 1, 2], [1, 1, 0, 0]]])
    def test_classify_refuses_codes_that_are_not_self_dual(self, monkeypatch, rows):
        # [12, 1, 12] has d past the self-dual bound, [4, 1, 3] the extremal
        # d of length 4, and a [4, 3] code fails on its shape alone
        code = Code(len(rows[0]), [Gf3Vector(r) for r in rows])
        monkeypatch.setattr(weights, "min_weight", lambda *args: pytest.fail("scanned"))
        with pytest.raises(ValueError, match="not self-dual"):
            classify(code)
