"""Spec building blocks: negashifts, self-duality identities, canonical form."""

import itertools
import random

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import naive
from nega3 import (
    CodeSpec,
    LengthMismatchError,
    block_row_vectors,
    build_generator,
    f_value,
    is_self_dual,
    neighbor,
    self_dual_violations,
)
from nega3.gf3 import Code, Gf3Vector
from nega3.nega import (_block_conj, _block_cross, _block_gram, _block_rows, _norm_two_elements,
                        row_gram_is_two)
from nega3.search import _ring_draws


def _rand_vec(rng, n):
    return [rng.randrange(3) for _ in range(n)]


def _norm_two_row(rng, m):
    """A first row whose block Gram with itself is 2: two of its blocks
    are +-x^k, the third is zero."""
    row = [0] * 3 * m
    for t in rng.sample(range(3), 2):
        row[t * m + rng.randrange(m)] = rng.choice((1, 2))
    return row


def _rows_of(v, b):
    """The block rows of v, of width 3b, by _block_rows, over {0, 1, 2}."""
    return (_block_rows(np.array(v, np.int8), b) % 3).tolist()


def _shift(v, b):
    """v with each width-b block negashifted once, by naive.negashift."""
    return [e for i in range(0, len(v), b) for e in naive.negashift(v[i:i + b])]


class TestNegashift:
    """The blockwise negashift, as _block_rows states it: block row j of a
    first row is its j-fold negashift, block by block."""

    def test_reference_example(self):
        rows = _rows_of([0, 1, 2] * 3, 3)
        assert [r[:3] for r in rows] == [[0, 1, 2], [1, 0, 1], [2, 1, 0]]

    @given(st.lists(st.integers(0, 2), min_size=1, max_size=12))
    def test_against_reference(self, v):
        # v as the first block of a first row whose other blocks are zero
        n, want = len(v), v
        for row in _rows_of(v + [0] * 2 * n, n):
            assert row == want + [0] * 2 * n
            want = naive.negashift(want)

    @given(st.sampled_from([3, 6]), st.integers(1, 8), st.data())
    def test_blocks_against_reference(self, blocks, b, data):
        v = data.draw(st.lists(st.integers(0, 2), min_size=blocks * b, max_size=blocks * b))
        # six blocks are two first rows side by side
        got = [_rows_of(v[i:i + 3 * b], b) for i in range(0, len(v), 3 * b)]
        want = v
        for j in range(b):
            assert [e for half in got for e in half[j]] == want
            want = _shift(want, b)

    @given(st.integers(1, 12).flatmap(
        lambda n: st.lists(st.integers(0, 2), min_size=3 * n, max_size=3 * n)))
    def test_period_2n(self, v):
        # the block rows of v, then of -v, are 2n successive shifts: n
        # shifts negate the vector, 2n shifts restore it
        n = len(v) // 3
        chain = _rows_of(v, n) + _rows_of(naive.vneg(v), n)
        for i in range(2 * n):
            assert _shift(chain[i], n) == chain[(i + 1) % (2 * n)]

    def test_preserves_dot(self):
        rng = random.Random(3)
        for _ in range(100):
            n = rng.randrange(1, 9)
            a, b = _rand_vec(rng, 3 * n), _rand_vec(rng, 3 * n)
            assert all(naive.vdot(a, b) == naive.vdot(u, w)
                       for u, w in zip(_rows_of(a, n), _rows_of(b, n)))


class TestSpec:
    def test_row_length_validated(self):
        good = Gf3Vector([1, 0, 0, 0, 0, 0])
        with pytest.raises(LengthMismatchError):
            CodeSpec(2, good, good, Gf3Vector([1, 0]))

    def test_from_entry_rows(self):
        spec = CodeSpec.from_entry_rows([[1, 0, 0, 0, 0, 0]] * 3)
        assert spec.block_size == 2
        assert spec.length == 12

    def test_generator_shape(self, registry):
        spec = registry.entry("C1").spec
        code = build_generator(spec)
        assert (len(code.basis), code.n) == (18, 36)
        # left half is the identity
        for i, r in enumerate(code.basis):
            left = r.entries()[:18]
            assert left == [1 if j == i else 0 for j in range(18)]

    @staticmethod
    def _random_specs():
        rng = random.Random(29)
        for m in range(1, 15):  # 6m > 64 from m = 11: two-lane vectors
            for _ in range(4):
                yield CodeSpec.from_entry_rows([_rand_vec(rng, 3 * m) for _ in range(3)])

    def test_systematic_rows_match_reference(self, registry):
        # build_generator's basis is the rows (e_i | block row i) of (I | M)
        specs = [e.spec for e in registry.entries.values() if e.spec is not None]
        assert len(specs) > 20
        for spec in specs + list(self._random_specs()):
            want = naive.spec_generator_rows(spec.block_size, *[r.entries() for r in spec.rows])
            basis = build_generator(spec).basis
            assert [v.entries() for v in basis] == want
            # the same values as vectors built entry by entry, hash included
            assert basis == tuple(Gf3Vector(r) for r in want)
            assert [hash(v) for v in basis] == [hash(Gf3Vector(r)) for r in want]

    def test_systematic_code_skips_only_the_reduction(self, registry):
        # build_generator takes the rows (e_i | block row i) as the reduced
        # basis as they are
        specs = [e.spec for e in registry.entries.values() if e.spec is not None]
        for spec in specs + list(self._random_specs()):
            built = build_generator(spec)
            reduced = Code(spec.length, list(built.basis))
            assert (built.n, built.k) == (reduced.n, reduced.k) == (spec.length, spec.length // 2)
            assert built.basis == reduced.basis
            assert built.pivots == reduced.pivots == tuple(range(built.k))
            assert built == reduced and hash(built) == hash(reduced)

    def test_neighbor_equals_its_reduced_basis(self, registry):
        # neighbor's echelon update and Code's row reduction give the same
        # int8 bytes, so the codes compare and hash alike
        entries = [e for e in registry.entries.values() if e.x is not None]
        assert entries
        for e in entries:
            moved = neighbor(build_generator(registry.entry(e.parent).spec), e.x)
            reduced = Code(e.length, list(moved.basis))
            assert moved == reduced and hash(moved) == hash(reduced)
            assert moved._rows.dtype == reduced._rows.dtype == np.int8

    def test_block_rows_match_reference(self):
        rng = random.Random(7)
        for _ in range(50):
            m = rng.randrange(1, 6)
            r = _rand_vec(rng, 3 * m)
            got = [v.entries() for v in block_row_vectors(m, Gf3Vector(r))]
            assert got == naive.block_rows(m, r)


class TestSelfDuality:
    def test_identities_equal_direct_gram(self):
        # block-identity form against a plain G * G^T on random specs
        rng = random.Random(41)
        agree = 0
        for _ in range(400):
            m = rng.randrange(1, 4)
            rows = [_rand_vec(rng, 3 * m) for _ in range(3)]
            spec = CodeSpec.from_entry_rows(rows)
            direct = naive.spec_is_self_dual(m, *rows)
            assert is_self_dual(spec) == direct
            agree += 1
        assert agree == 400

    def test_registry_specs_self_dual(self, registry):
        for label, entry in registry.entries.items():
            spec = entry.spec
            if spec is None:
                continue
            assert is_self_dual(spec), label
            assert self_dual_violations(spec) == []

    def test_violations_identify_bad_blocks(self):
        # r1 = (1, 1, 0) fine on its own terms, zero rows r2 and r3
        # breaking their diagonal identities only
        spec = CodeSpec.from_entry_rows([
            [1, 0, 1, 0, 0, 0],
            [0, 0, 0, 0, 0, 0],
            [0, 0, 0, 0, 0, 0],
        ])
        assert self_dual_violations(spec) == [(2, 2), (3, 3)]
        # the whole list in row-major order (verify prints it), on specs
        # whose rows are random, zero, or of norm 2: two blocks +-x^k
        rng = random.Random(43)
        seen = set()
        for _ in range(300):
            m = rng.randrange(1, 7)
            rows = [rng.choice([_rand_vec(rng, 3 * m), [0] * 3 * m, _norm_two_row(rng, m),
                                _norm_two_row(rng, m)]) for _ in range(3)]
            want = [(i + 1, j + 1) for i in range(3) for j in range(i, 3)
                    if naive.row_pair_gram(m, rows[i], rows[j]) != [2 * (i == j)] + [0] * (m - 1)]
            assert self_dual_violations(CodeSpec.from_entry_rows(rows)) == want
            seen.add(tuple(want))
        assert len(seen) > 20

    def test_row_gram_matches_block_gram(self):
        # the one-row diagonal check must agree with M M^T = -I restricted
        # to that row's block rows
        rng = random.Random(13)
        for _ in range(200):
            m = rng.randrange(1, 5)
            r = _rand_vec(rng, 3 * m)
            rows = naive.block_rows(m, r)
            want = all(
                naive.vdot(rows[i], rows[j]) == (2 if i == j else 0)
                for i in range(m)
                for j in range(m)
            )
            assert row_gram_is_two(m, Gf3Vector(r)) is want  # a Python bool

    def test_row_pair_gram_zero_iff_cross_blocks_orthogonal(self):
        # the block rows and every Gram coefficient against the plain list
        # versions for m = 1..12, in all three call shapes: row with row,
        # batch with batch (pairwise, and all pairs by broadcasting), batch
        # with one row.  Dense rows of 2s pass int8 from m = 11 on.  A Gram
        # is zero exactly when the two block rows are orthogonal.
        rng = random.Random(17)
        for m in range(1, 13):
            rows = [[2] * 3 * m, [2] * (3 * m - 1) + [1], [0] * 3 * m]
            rows += [_rand_vec(rng, 3 * m) for _ in range(9)]
            a = np.array(rows, np.int8)
            assert (_block_rows(a, m) % 3).tolist() == [naive.block_rows(m, r) for r in rows]
            want = [[naive.row_pair_gram(m, u, v) for v in rows] for u in rows]
            assert _block_gram(a[:, None], a, m).tolist() == want
            assert _block_gram(a, a[::-1], m).tolist() == [w[-1 - i] for i, w in enumerate(want)]
            for j in range(len(rows)):
                assert _block_gram(a, a[j], m).tolist() == [w[j] for w in want]
                assert _block_gram(a[j], a[j - 1], m).tolist() == want[j][j - 1]
                pairs = itertools.product(naive.block_rows(m, rows[j]),
                                          naive.block_rows(m, rows[j - 1]))
                assert (not any(want[j][j - 1])) == all(naive.vdot(u, v) == 0 for u, v in pairs)


class TestThirdRow:
    """The third row in closed form: g = conj(r1 x r2) has norm 1 and is
    orthogonal to r1 and r2, so the third rows are the u * g for u in V_n =
    {u : u u^* = -1}, against the list versions in naive."""

    def test_cross_and_conj_match_reference(self):
        # all pairs by broadcasting, one row with a batch, row with row
        rng = random.Random(29)
        for m in range(1, 13):
            rows = [[2] * 3 * m, [1] * 3 * m, [0] * 3 * m]
            rows += [_rand_vec(rng, 3 * m) for _ in range(6)]
            a = np.array(rows, np.int8)
            assert _block_conj(a, m).tolist() == [naive.row_conj(m, v) for v in rows]
            want = [[naive.ring_cross(m, u, v) for v in rows] for u in rows]
            assert _block_cross(a[:, None], a, m).tolist() == want
            assert _block_cross(a[1], a, m).tolist() == want[1]
            assert _block_cross(a[4], a[5], m).tolist() == want[4][5]

    @pytest.mark.parametrize("m", [2, 4, 6, 8, 10])
    def test_ring_draws_are_completed_by_the_cross_product(self, m):
        rows = _ring_draws([random.Random(1000 * m + t) for t in range(40)], m)
        scalars = _norm_two_elements(m).tolist()
        g_all = _block_conj(_block_cross(rows[:, 0], rows[:, 1], m), m).tolist()
        for (r1, r2, r3), g in zip(rows.tolist(), g_all):
            assert g == naive.row_conj(m, naive.ring_cross(m, r1, r2))
            assert naive.row_pair_gram(m, g, g) == [1] + [0] * (m - 1)
            assert naive.row_pair_gram(m, r1, g) == naive.row_pair_gram(m, r2, g) == [0] * m
            u = naive.row_pair_gram(m, r3, g)  # r3 = <r3, g> g, as N(g) = 1
            assert u in scalars and naive.ring_scale(m, u, g) == r3

    @pytest.mark.parametrize("m, size", [(2, 4), (4, 8), (6, 36)])
    def test_norm_two_elements_brute_force(self, m, size):
        # every element of R_m, ascending f
        want = [u for u in (naive.vector_from_f(f, m) for f in range(3**m))
                if naive.nega_mul(u, naive.nega_conj(u)) == [2] + [0] * (m - 1)]
        assert len(want) == size
        assert _norm_two_elements(m).tolist() == want

    def test_norm_two_elements_sizes(self):
        # none at odd m: u(-1)^2 = -1 has no root in F_3
        sizes = [len(_norm_two_elements(m)) for m in range(1, 11)]
        assert sizes == [0, 4, 0, 8, 0, 36, 0, 80, 0, 320]
        assert not _norm_two_elements(4).flags.writeable


class TestFValue:
    @given(st.lists(st.integers(0, 2), min_size=0, max_size=40))
    def test_roundtrip(self, v):
        f = f_value(Gf3Vector(v))
        assert f == naive.f_value(v)
        assert naive.vector_from_f(f, len(v)) == v

    @pytest.mark.parametrize("n", range(131))
    def test_zero_and_all_two_vectors(self, n):
        # every digit 0, then every digit 2, the least and the greatest
        # value, exact past int64 (3^41 > 2^64) and past two 64-bit lanes
        assert f_value(Gf3Vector([0] * n)) == naive.f_value([0] * n) == 0
        assert f_value(Gf3Vector([2] * n)) == naive.f_value([2] * n) == 3**n - 1
        assert naive.vector_from_f(3**n - 1, n) == [2] * n

    @given(st.integers(min_value=0, max_value=3**10 - 1))
    def test_inverse(self, f):
        assert f_value(Gf3Vector(naive.vector_from_f(f, 10))) == f

    def test_out_of_range(self):
        # f_value maps the 9 vectors of length 2 onto 0 .. 8, none past
        assert sorted(f_value(Gf3Vector(v)) for v in itertools.product(range(3), repeat=2)) == list(range(9))


class TestConditions:
    def test_registry_specs_satisfy_conditions(self, registry):
        # the published build vectors are canonical-form representatives
        for label in ("C1", "C2", "C3", "C4"):
            spec = registry.entry(label).spec
            rows = [r.entries() for r in spec.rows]
            assert naive.conditions(spec.block_size, rows, 9), label


class TestTransforms:
    def _distribution(self, spec):
        rows = naive.spec_generator_rows(spec.block_size, *[r.entries() for r in spec.rows])
        return naive.distribution(rows)

    def test_transforms_preserve_self_duality_and_weights(self, registry):
        length12 = [
            [1, 1, 1, 1, 0, 1],
            [1, 2, 1, 2, 2, 0],
            [1, 0, 2, 0, 0, 0],
        ]
        assert is_self_dual(CodeSpec.from_entry_rows(length12))
        moves = [
            naive.row_move(length12, units=(2, 1, 2)),
            naive.column_move(2, length12, units=(1, 2, 2)),
            naive.row_move(length12, perm=(1, 2, 0)),
            naive.column_move(2, length12, perm=(2, 0, 1)),
        ]
        base = self._distribution(CodeSpec.from_entry_rows(length12))
        for move in moves:
            out = CodeSpec.from_entry_rows(move)
            assert is_self_dual(out), move
            assert self._distribution(out) == base, move
