"""Minimum-weight engine against full enumeration on small codes."""

import itertools
import random
import time

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
    full_distribution,
    is_self_dual,
    min_weight,
    ms_bound,
    near_extremal_family,
    near_extremal_weight,
    weights,
)
from nega3.search import _sample_spec


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
        spec = next(filter(None, (_sample_spec(plan, t, True) for t in itertools.count())))
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
