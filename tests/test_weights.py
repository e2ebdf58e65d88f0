"""Minimum-weight engine against full enumeration on small codes."""

import functools
import itertools
import random
import time
from math import comb

import numpy as np
import pytest
from hypothesis import assume, given
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
from nega3.gf3 import _code_from_echelon, _rref_rows
from nega3.nega import _systematic_rows
from nega3.search import _unit_specs, _units


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


def _permuted(code, rng):
    """The code with its columns shuffled: the same weights, but no longer
    invariant under the blockwise negashift, so scanned on the generic path."""
    perm = list(range(code.n))
    while True:
        rng.shuffle(perm)
        other = Code(code.n, [Gf3Vector([r[p] for p in perm]) for r in code.basis])
        if not weights._orbit_width(other):
            return other


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
        # every length-12 spec takes the orbit path, about four in five at
        # length 24; the rest (singular M) compare two generic scans
        rng = random.Random(seed)
        rows = [[rng.randrange(3) for _ in range(3 * m)] for _ in range(3)]
        code = build_generator(CodeSpec.from_entry_rows(rows))
        _check_against_generic(code, seed)
        _check_sweep_against_generic(code, seed)

    @given(st.sampled_from([2, 4]), st.integers(0, 2**32))
    def test_random_self_dual_specs(self, m, seed):
        plan = SearchPlan(m, mode="sampled", seed=seed, budget=1)
        spec = next(itertools.chain.from_iterable(
            _unit_specs(plan, t, verified=True) for t in itertools.count()))
        assert is_self_dual(spec)
        code = build_generator(spec)
        assert weights._orbit_width(code) == m
        _check_against_generic(code, seed)
        _check_sweep_against_generic(code, seed)

    @pytest.mark.parametrize("label", ["C1", "C2", "C3", "C4", "C36"])
    def test_stored_length36_specs(self, registry, label):
        code = registry.entry(label).build()
        assert weights._orbit_width(code) == 6
        _check_against_generic(code, 36)


# an extremal length-24 spec: d = 9, so it has no words of weight 6
_EXTREMAL24 = CodeSpec.from_entry_rows([
    [0, 1, 2, 2, 0, 1, 2, 0, 1, 2, 1, 0],
    [1, 0, 2, 1, 1, 0, 1, 0, 1, 1, 1, 0],
    [0, 1, 2, 0, 1, 2, 1, 2, 2, 0, 1, 0]])


def _self_dual_specs(m, seed, count):
    """The first count specs of sampled trials from seed on, which pass
    every identity, so their codes are self-dual."""
    plan = SearchPlan(m, mode="sampled", seed=seed, budget=1)
    specs = itertools.chain.from_iterable(
        _unit_specs(plan, t, verified=True) for t in itertools.count())
    return list(itertools.islice(specs, count))


@functools.cache
def _self_dual_pool(m):
    """Self-dual specs of length 6m: all six that the length-12 search
    verifies, else the first 30 of sampled trials."""
    if m == 2:
        plan = SearchPlan(2)
        return tuple(s for u in _units(plan) for s in _unit_specs(plan, u, verified=True))
    return tuple(_self_dual_specs(m, 0, 30))


def _mixed_stack(m, seed):
    """Codes of length 6m in a shuffled order: random (I | M) specs, most of
    them not self-dual and with words below the near-extremal weight,
    self-dual specs, and at length 24 the extremal spec."""
    rng = random.Random(seed)
    specs = [CodeSpec.from_entry_rows([[rng.randrange(3) for _ in range(3 * m)]
                                       for _ in range(3)]) for _ in range(6)]
    specs += rng.sample(_self_dual_pool(m), 4)
    if m == 4:
        specs.append(_EXTREMAL24)
    rng.shuffle(specs)
    return [build_generator(spec) for spec in specs]


def _one_by_one(code, d):
    """What _settle promises for one code, from min_weight and count_weight."""
    return count_weight(code, d) if min_weight(code) == d else None


def _by_enumeration(dist, d):
    """The same from a full weight distribution."""
    return dist[d] if min(w for w in dist if w) == d else None


class TestStackedScan:
    """weights._settle, which settles d and A_d of many codes in one stacked
    scan, against each code scanned alone and against full enumeration."""

    @given(st.sampled_from([2, 4]), st.integers(0, 2**32))
    def test_mixed_stacks_match_one_code_at_a_time(self, m, seed):
        codes = _mixed_stack(m, seed)
        if m == 2:
            dists = [naive.distribution([r.entries() for r in c.basis]) for c in codes]
        # the near-extremal weight, and the minimum weights of the codes,
        # so that codes of every kind have d as their minimum weight
        for d in sorted({near_extremal_weight(6 * m)} | {min_weight(c) for c in codes}):
            got = weights._settle(codes, d)
            assert got == [_one_by_one(c, d) for c in codes], d
            if m == 2:
                assert got == [_by_enumeration(dist, d) for dist in dists], d

    def test_a_stack_holds_every_outcome(self):
        codes = _mixed_stack(4, 3)
        got = weights._settle(codes, 6)
        d = [min_weight(c) for c in codes]
        assert {w < 6 for w in d} == {True, False}  # some codes drop out
        extremal = d.index(9)  # A_6 = 0, so no count either
        assert got[extremal] is None
        assert all((a is not None) == (w == 6) for a, w in zip(got, d))
        assert sum(a is not None for a in got) >= 3

    @pytest.mark.parametrize("chunk,stack", [(1, 1), (3, 2), (7, 7), (weights._CHUNK, 4)])
    def test_small_chunks_and_stacks(self, monkeypatch, chunk, stack):
        codes = _mixed_stack(4, 11) + [build_generator(s) for s in _self_dual_pool(4)[:8]]
        want = weights._settle(codes, 6)
        walk = weights._words

        def bounded(lo, hi, j, width, alive=None):
            for batch in walk(lo, hi, j, width, alive):
                assert batch[1].shape[0] * batch[1].shape[1] <= chunk
                yield batch

        monkeypatch.setattr(weights, "_CHUNK", chunk)
        monkeypatch.setattr(weights, "_STACK", stack)
        monkeypatch.setattr(weights, "_words", bounded)
        assert weights._settle(codes, 6) == want
        assert want == [_one_by_one(c, 6) for c in codes]


def _walked(monkeypatch, code, run):
    """The (level, set) passes of the covering scans that run() makes on
    code, in order, with run()'s result.  A pass's set is the information
    set whose planes it walks."""
    sets = weights._information_sets(code)
    walked = []
    real = weights._words

    def recording(lo, hi, j, width, alive=None):
        walked.append((j, next(i for i, s in enumerate(sets) if np.array_equal(lo[0], s.lo))))
        return real(lo, hi, j, width, alive)

    with monkeypatch.context() as patch:
        patch.setattr(weights, "_words", recording)
        result = run()
    return walked, result


def _check_scan_against_naive(code, dist):
    """min_weight, its kept count, count_weight at d and d + 3, the count
    scan itself at both weights, and the d-prune, against the distribution."""
    d = min(w for w in dist if w)
    assert min_weight(code) == d
    assert code._cache["count_at_min"] == dist[d]
    for w in (d, d + 3):
        assert count_weight(code, w) == dist.get(w, 0), w
        assert weights._stack_counts([code], w, floor=1).count[0] == dist.get(w, 0), w
    for t in (d - 1, d, d + 1):
        assert weights._clears(code, t) == (t <= d), t


_generic_rows = st.integers(6, 12).flatmap(lambda n: st.lists(
    st.lists(st.integers(0, 2), min_size=n, max_size=n), min_size=2, max_size=7))


class TestPerSetBound:
    """The covering scan stops once the bound, raised after every
    information set, passes the weight it counts; min_weight settles d and
    A_d in that one scan."""

    def test_b280_ends_after_set_0_of_level_6(self, registry, monkeypatch):
        code = registry.entry("B280").build()
        walked, got = _walked(monkeypatch, code, lambda: (min_weight(code), count_weight(code, 12)))
        assert got == (12, 2240)
        assert walked == [(j, i) for j in range(1, 6) for i in (0, 1)] + [(6, 0)]

    def test_c1_walks_both_sets_at_level_4(self, registry, monkeypatch):
        code = registry.entry("C1").build()
        walked, got = _walked(monkeypatch, code, lambda: (min_weight(code), count_weight(code, 9)))
        assert got == (9, 48)
        assert walked == [(j, i) for j in range(1, 5) for i in (0, 1)]

    @pytest.mark.parametrize("label,w", [("C1", 9), ("C1", 12), ("B280", 12), ("B280", 15)])
    def test_count_cost_prices_the_passes_walked(self, registry, monkeypatch, label, w):
        code = registry.entry(label).build()
        walked, _ = _walked(monkeypatch, code, lambda: weights._stack_counts([code], w, floor=1))
        assert weights.count_cost(code, w) == sum(comb(code.k, j) << j for j, _ in walked)

    @given(_generic_rows)
    def test_generic_codes_with_deficits(self, rows):
        code = Code(len(rows[0]), [Gf3Vector(r) for r in rows])
        assume(code.k and any(s.deficit for s in weights._information_sets(code)))
        _check_scan_against_naive(code, naive.distribution([r.entries() for r in code.basis]))

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


def _greedy_sets(code):
    """Information sets by the greedy rule alone: the reduced basis, then
    reductions with the columns not yet used scanned first."""
    out, used = [], set()
    rows, pivots = list(code.basis), list(code.pivots)
    while True:
        fresh_pivots = [p for p in pivots if p not in used]
        if not fresh_pivots:
            return out
        out.append((rows[: code.k], pivots, code.k - len(fresh_pivots)))
        used.update(fresh_pivots)
        fresh = [c for c in range(code.n) if c not in used]
        if not fresh:
            return out
        rows, pivots = _rref_rows(code.basis, fresh + sorted(used))


def _sets(code):
    return [(list(rows), list(pivots), deficit)
            for rows, pivots, deficit in weights._systematic_bases(code)]


def _check_packed(code):
    for iset, (rows, pivots, deficit) in zip(weights._information_sets(code), _sets(code)):
        assert [[int(x) for x in lane] for lane in iset.lo] == [[r._lo] for r in rows]
        assert [[int(x) for x in lane] for lane in iset.hi] == [[r._hi] for r in rows]
        assert (iset.pivots, iset.deficit) == (pivots, deficit)
        assert int(iset.pivot_mask[0]) == sum(1 << p for p in pivots)


class TestInformationSets:
    """The closed-form second basis of self-dual codes against the greedy
    row reduction it replaces."""

    @pytest.mark.parametrize("m", [2, 4, 6])
    def test_self_dual_specs(self, m):
        for spec in _self_dual_pool(m):
            code = build_generator(spec)
            assert code.is_self_dual()
            assert _sets(code) == _greedy_sets(code)
            assert [s[1] for s in _sets(code)] == [list(range(3 * m)), list(range(3 * m, 6 * m))]

    @given(st.integers(0, 2**32))
    def test_neighbors(self, registry, seed):
        rng = random.Random(seed)
        base = build_generator(registry.entry("C2").spec)
        while True:
            x = Gf3Vector([rng.randrange(3) for _ in range(36)])
            if x.weight() % 3 == 0 and not base.contains(x):
                break
        code = neighbor(base, x)
        assert _sets(code) == _greedy_sets(code)
        assert [s[2] for s in _sets(code)] == [0, 0]

    @pytest.mark.parametrize("q", [None, 5, 11, 17, 23])
    def test_qr48_and_pless_codes(self, q):
        code = extended_qr48() if q is None else pless_symmetry(q)
        assert code.is_self_dual()
        assert _sets(code) == _greedy_sets(code)
        _check_packed(code)

    @pytest.mark.parametrize("m", [2, 4, 6])
    def test_d_prune_subcodes_take_the_greedy_path(self, monkeypatch, m):
        # the [6m, m] subcodes of the search's d-prune are not self-dual
        def refuse(code):
            raise AssertionError("closed form used on a code that is not self-dual")

        monkeypatch.setattr(weights, "_dual_rows", refuse)
        rng = random.Random(m)
        for _ in range(10):
            r1 = Gf3Vector([rng.randrange(3) for _ in range(3 * m)])
            code = _code_from_echelon(6 * m, _systematic_rows(m, [r1]))
            assert not code.is_self_dual()
            assert _sets(code) == _greedy_sets(code)
            _check_packed(code)

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
            assert wp.complete
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
        assert not weights._orbit_width(code)
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
        lo_a, hi_a = weights._span_planes([Gf3Vector(r) for r in first], n)
        lo_b, hi_b = weights._span_planes([Gf3Vector(r) for r in second], n)
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
        assert weights._weights_of(lo, hi).tolist() == want.tolist()
        assert weights._weights_of(lo[0], hi[0]).tolist() == want[0].tolist()


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
        code = registry.entry("C48").build()
        assert weights._orbit_width(code) == 8
        with pytest.raises(GuardError, match=r"411 x 3\^16 = 1\.77e\+10 of its 3\^24 "
                           r"codewords \(roughly 136s\)") as exc:
            full_distribution(code)
        assert exc.value.estimate == 411 * 3**16

    def test_first_block_wider_than_half_the_basis(self):
        # a [12, 2] code with sigma as an automorphism and whole-block pivots,
        # whose first half (one row) cannot hold the first block
        rows = [Gf3Vector([1, 0, 1, 0] + [0] * 8), Gf3Vector([0, 1, 0, 1] + [0] * 8)]
        code = Code(12, rows)
        assert weights._orbit_width(code) == 2
        _check_sweep_against_generic(code, 0)

    # words of weight 9: eight times beta for the near-extremal C1-C4, none
    # for the extremal C36
    @pytest.mark.parametrize("label,alpha", [
        ("C1", 48), ("C2", 56), ("C3", 80), ("C4", 728), ("C36", 0)])
    def test_stored_length36_specs_match_their_family_member(self, registry, label, alpha):
        code = registry.entry(label).build()
        assert weights._orbit_width(code) == 6
        want = near_extremal_family(36).at(alpha)
        got = full_distribution(code).counts
        assert [got.get(e, 0) for e in range(37)] == [want.coefficient(e) for e in range(37)]


class TestBoundsAndClasses:
    def test_bound_values(self):
        assert [ms_bound(n) for n in (12, 24, 36, 48, 60, 72)] == [6, 9, 12, 15, 18, 21]
        assert [near_extremal_weight(n) for n in (12, 36, 48)] == [3, 9, 12]

    def test_classify(self, registry):
        assert classify(registry.entry("C1").build()) is ExtremalityClass.NEAR_EXTREMAL
        assert classify(registry.entry("C36").build()) is ExtremalityClass.EXTREMAL

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
