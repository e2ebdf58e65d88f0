"""Spec building blocks: negashifts, self-duality identities, canonical form."""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

import naive
from nega3 import (
    BlockTransform,
    CodeSpec,
    LengthMismatchError,
    apply_transform,
    block_row_vectors,
    build_generator,
    f_value,
    is_self_dual,
    negashift,
    self_dual_violations,
    vector_from_f,
)
from nega3.gf3 import Code, Gf3Vector, _code_from_echelon
from nega3.nega import _negashift_blocks, _systematic_rows, row_gram_is_two, row_pair_gram


def _rand_vec(rng, n):
    return [rng.randrange(3) for _ in range(n)]


class TestNegashift:
    def test_reference_example(self):
        rows = [Gf3Vector([0, 1, 2])]
        for _ in range(2):
            rows.append(negashift(rows[-1]))
        assert [r.entries() for r in rows] == [[0, 1, 2], [1, 0, 1], [2, 1, 0]]

    @given(st.lists(st.integers(0, 2), min_size=1, max_size=12))
    def test_against_reference(self, v):
        assert negashift(Gf3Vector(v)).entries() == naive.negashift(v)

    @given(st.sampled_from([3, 6]), st.integers(1, 8), st.data())
    def test_blocks_against_reference(self, blocks, b, data):
        v = data.draw(st.lists(st.integers(0, 2), min_size=blocks * b, max_size=blocks * b))
        want = [e for i in range(0, len(v), b) for e in naive.negashift(v[i:i + b])]
        assert _negashift_blocks(Gf3Vector(v), b).entries() == want

    @given(st.lists(st.integers(0, 2), min_size=1, max_size=12))
    def test_period_2n(self, v):
        # n shifts negate the vector, 2n shifts restore it
        out = Gf3Vector(v)
        for _ in range(len(v)):
            out = negashift(out)
        assert out.entries() == naive.vneg(v)
        for _ in range(len(v)):
            out = negashift(out)
        assert out.entries() == v

    def test_preserves_dot(self):
        rng = random.Random(3)
        for _ in range(100):
            n = rng.randrange(1, 9)
            a, b = _rand_vec(rng, n), _rand_vec(rng, n)
            assert naive.vdot(a, b) == negashift(Gf3Vector(a)).dot(negashift(Gf3Vector(b)))


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

    def test_systematic_rows_match_reference(self):
        rng = random.Random(29)
        for _ in range(50):
            m = rng.randrange(1, 6)
            rows = [_rand_vec(rng, 3 * m) for _ in range(3)]
            want = naive.spec_generator_rows(m, *rows)
            for count in (1, 3):
                got = _systematic_rows(m, [Gf3Vector(r) for r in rows[:count]])
                assert [v.entries() for v in got] == want[: count * m]

    @given(st.integers(1, 6), st.integers(1, 3), st.integers(0, 2**32))
    def test_systematic_code_skips_only_the_reduction(self, m, count, seed):
        # build_generator and the d-prune take the rows (e_i | block row i)
        # as the reduced basis as they are
        rng = random.Random(seed)
        rows = [Gf3Vector(_rand_vec(rng, 3 * m)) for _ in range(count)]
        built = _code_from_echelon(6 * m, _systematic_rows(m, rows))
        reduced = Code(6 * m, _systematic_rows(m, rows))
        assert (built.n, built.k) == (reduced.n, reduced.k) == (6 * m, count * m)
        assert built.basis == reduced.basis
        assert built.pivots == reduced.pivots == tuple(range(count * m))
        assert built == reduced and hash(built) == hash(reduced)
        if count == 3:
            assert build_generator(CodeSpec(m, *rows)) == reduced

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
        # r1 fine on its own terms, r2 breaking the (2,2) identity only
        spec = CodeSpec.from_entry_rows([
            [1, 1, 0, 1, 0, 1],
            [0, 0, 0, 0, 0, 0],
            [0, 0, 0, 0, 0, 0],
        ])
        bad = self_dual_violations(spec)
        assert (2, 2) in bad and (3, 3) in bad

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
            assert row_gram_is_two(m, Gf3Vector(r)) == want

    def test_row_pair_gram_zero_iff_cross_blocks_orthogonal(self):
        # every coefficient against the list-convolution ring product, and
        # zero exactly when the two block rows are orthogonal
        rng = random.Random(17)
        for _ in range(200):
            m = rng.randrange(1, 9)
            a, b = _rand_vec(rng, 3 * m), _rand_vec(rng, 3 * m)
            got = row_pair_gram(m, Gf3Vector(a), Gf3Vector(b))
            assert got == naive.row_pair_gram(m, a, b)
            ra, rb = naive.block_rows(m, a), naive.block_rows(m, b)
            all_orth = all(naive.vdot(u, v) == 0 for u in ra for v in rb)
            assert (not any(got)) == all_orth


class TestFValue:
    @given(st.lists(st.integers(0, 2), min_size=0, max_size=40))
    def test_roundtrip(self, v):
        f = f_value(Gf3Vector(v))
        assert f == naive.f_value(v)
        assert vector_from_f(len(v), f).entries() == v

    @pytest.mark.parametrize("n", range(41))
    def test_zero_and_all_two_vectors(self, n):
        # every digit 0, then every digit 2, the least and the greatest value
        assert f_value(Gf3Vector.zeros(n)) == naive.f_value([0] * n) == 0
        assert f_value(Gf3Vector([2] * n)) == naive.f_value([2] * n) == 3**n - 1
        assert vector_from_f(n, 3**n - 1) == Gf3Vector([2] * n)

    @given(st.integers(min_value=0, max_value=3**10 - 1))
    def test_inverse(self, f):
        assert f_value(vector_from_f(10, f)) == f

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            vector_from_f(2, 9)


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
        length12 = CodeSpec.from_entry_rows([
            [1, 1, 1, 1, 0, 1],
            [1, 2, 1, 2, 2, 0],
            [1, 0, 2, 0, 0, 0],
        ])
        assert is_self_dual(length12)
        transforms = [
            BlockTransform("scale_rows", units=(2, 1, 2)),
            BlockTransform("scale_columns", units=(1, 2, 2)),
            BlockTransform("permute_rows", perm=(1, 2, 0)),
            BlockTransform("permute_columns", perm=(2, 0, 1)),
        ]
        base = self._distribution(length12)
        for t in transforms:
            out = apply_transform(length12, t)
            assert is_self_dual(out), t
            assert self._distribution(out) == base, t

    def test_transform_validation(self):
        with pytest.raises(ValueError):
            BlockTransform("scale_rows", units=(0, 1, 1))
        with pytest.raises(ValueError):
            BlockTransform("permute_rows", perm=(0, 0, 2))
        with pytest.raises(ValueError):
            BlockTransform("permute_rows", units=(1, 1, 1), perm=(0, 1, 2))
