"""Packed GF(3) arithmetic against the plain-list reference."""

import random

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import naive
from nega3 import Code, Gf3Vector, LengthMismatchError, pless_symmetry
from nega3.gf3 import _dual_rows, _entry_rows, _rref_rows, _vectors


def _rref_from_the_right(rows):
    """The row reduction with columns scanned right to left: _rref_rows of
    the rows with their columns reversed, the rows and pivots read back."""
    out, pivots = _rref_rows([Gf3Vector(r.entries()[::-1]) for r in rows])
    n = len(rows[0]) if rows else 0
    return [Gf3Vector(r.entries()[::-1]) for r in out], [n - 1 - p for p in pivots]


entry = st.integers(min_value=0, max_value=2)
vec_lists = st.lists(entry, min_size=1, max_size=40)

# spanning rows of width 1..13, from none up to one more row than the width
spans = st.integers(min_value=1, max_value=13).flatmap(
    lambda w: st.lists(st.lists(entry, min_size=w, max_size=w), max_size=w + 1).map(
        lambda rows: (w, [Gf3Vector(r) for r in rows])))


def pairs(draw_len=st.integers(min_value=1, max_value=40)):
    return draw_len.flatmap(
        lambda n: st.tuples(
            st.lists(entry, min_size=n, max_size=n),
            st.lists(entry, min_size=n, max_size=n),
        )
    )


class TestVector:
    def test_exhaustive_small_ops(self):
        # every pair of length-2 vectors: add, sub, dot against the reference
        all2 = [[a, b] for a in range(3) for b in range(3)]
        for x in all2:
            for y in all2:
                vx, vy = Gf3Vector(x), Gf3Vector(y)
                assert (vx + vy).entries() == naive.vadd(x, y)
                assert (vx - vy).entries() == naive.vadd(x, naive.vneg(y))
                assert vx.dot(vy) == naive.vdot(x, y)

    @given(pairs())
    def test_random_ops(self, ab):
        a, b = ab
        va, vb = Gf3Vector(a), Gf3Vector(b)
        assert (va + vb).entries() == naive.vadd(a, b)
        assert va.dot(vb) == naive.vdot(a, b)
        assert va.weight() == naive.vweight(a)
        assert va.scale(2).entries() == naive.vscale(a, 2)
        assert va.scale(2).entries() == naive.vneg(a)

    @given(pairs())
    def test_dot_bilinear(self, ab):
        a, b = ab
        va, vb = Gf3Vector(a), Gf3Vector(b)
        assert (va + vb).dot(va + vb) == (
            va.dot(va) + 2 * va.dot(vb) + vb.dot(vb)
        ) % 3

    @given(vec_lists)
    def test_entries_roundtrip(self, a):
        assert Gf3Vector(a).entries() == a

    def test_entries_reduce_mod_3(self):
        # the constructor canonicalizes into the field; strict digit
        # validation is the vector-file parser's job
        assert Gf3Vector([0, 3, 4, 5]).entries() == [0, 0, 1, 2]

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatchError):
            Gf3Vector([1]) + Gf3Vector([1, 0])


class TestMatrixAndRref:
    def _random_rows(self, rng, nrows, ncols):
        return [[rng.randrange(3) for _ in range(ncols)] for _ in range(nrows)]

    def test_rank_against_reference(self):
        rng = random.Random(5)
        for _ in range(200):
            nrows = rng.randrange(1, 7)
            ncols = rng.randrange(1, 9)
            rows = self._random_rows(rng, nrows, ncols)
            assert Code(ncols, [Gf3Vector(r) for r in rows]).k == naive.rank(rows)

    def test_rref_rows_descending_order_is_echelon(self):
        # with columns processed right to left, each returned row must be
        # zero at every column to the right of its pivot
        rng = random.Random(11)
        for _ in range(100):
            ncols = rng.randrange(2, 10)
            rows = [Gf3Vector([rng.randrange(3) for _ in range(ncols)])
                    for _ in range(rng.randrange(1, 6))]
            out, pivots = _rref_from_the_right(rows)
            assert sorted(pivots, reverse=True) == list(pivots)
            for row, p in zip(out, pivots):
                ent = row.entries()
                assert ent[p] == 1
                assert all(e == 0 for e in ent[p + 1:])


class TestCode:
    tetra = [[1, 0, 1, 1], [0, 1, 1, 2]]

    def test_tetracode_self_dual(self):
        c = Code(4, [Gf3Vector(r) for r in self.tetra])
        assert c.k == 2
        assert c.is_self_dual()

    def test_dual_dimensions_and_orthogonality(self):
        rng = random.Random(23)
        for _ in range(60):
            n = rng.randrange(2, 10)
            rows = [Gf3Vector([rng.randrange(3) for _ in range(n)])
                    for _ in range(rng.randrange(1, n + 1))]
            c = Code(n, rows)
            d = c.dual()
            assert c.k + d.k == n
            assert all(a.dot(b) == 0 for a in c.basis for b in d.basis)
            assert d.dual() == c

    def test_contains(self):
        c = Code(4, [Gf3Vector(r) for r in self.tetra])
        words = {tuple(w) for w in naive.codewords(self.tetra)}
        for f in range(81):
            v = [(f // 3**i) % 3 for i in range(4)]
            assert c.contains(Gf3Vector(v)) == (tuple(v) in words)

    def test_zero_code(self):
        c = Code(5, [])
        assert c.k == 0
        assert c.dual().k == 5

    @given(spans)
    def test_dual_rows_are_the_right_first_echelon_form(self, span):
        # the closed-form dual basis, reversed, against a row reduction of
        # the dual with columns scanned from the right
        w, rows = span
        code = Code(w, rows)
        dual = _dual_rows(code)
        assert len(dual) == w - code.k
        assert all(a.dot(b) == 0 for a in code.basis for b in dual)
        want, pivots = _rref_from_the_right(code.dual().basis)
        assert dual[::-1] == want[: len(pivots)]
        assert sorted(pivots + list(code.pivots)) == list(range(w))


def _naive_self_dual(code):
    rows = [r.entries() for r in code.basis]
    return 2 * len(rows) == code.n and all(naive.vdot(a, b) == 0 for a in rows for b in rows)


def _column_permuted(code, seed):
    """The code with its columns shuffled so that its pivots are no longer
    the first k columns: the first such shuffle of a seeded generator."""
    rng = random.Random(seed)
    for _ in range(50):  # about half of all shuffles move a pivot
        perm = list(range(code.n))
        rng.shuffle(perm)
        moved = Code(code.n, [Gf3Vector([r[p] for p in perm]) for r in code.basis])
        if moved.pivots != tuple(range(code.k)):
            return moved
    raise AssertionError("no shuffle moved a pivot")


def _direct_sum(a, b):
    """The code of a on the first a.n columns beside b on the last b.n."""
    return Code(a.n + b.n, [Gf3Vector(r.entries() + [0] * b.n) for r in a.basis]
                + [Gf3Vector([0] * a.n + r.entries()) for r in b.basis])


class TestEntryRows:
    """The array reader (_entry_rows) and writer (_vectors) against the
    per-entry loop, and Code.is_self_dual, one product of the read rows,
    against naive.vdot over the basis."""

    @given(st.integers(min_value=0, max_value=140).flatmap(
        lambda n: st.lists(st.lists(entry, min_size=n, max_size=n), max_size=4).map(
            lambda rows: (n, rows))))
    def test_roundtrip(self, case):
        n, rows = case
        vectors = [Gf3Vector(r) for r in rows]
        got = _entry_rows(vectors, n)
        assert got.dtype == np.int8 and got.shape == (len(rows), n)
        assert got.tolist() == [v.entries() for v in vectors]
        for dtype in (np.int8, np.int16):
            assert _vectors(np.array(rows, dtype).reshape(len(rows), n)) == vectors

    def test_lane_edges(self):
        rng = random.Random(7)
        for n in (1, 7, 8, 9, 63, 64, 65, 127, 128, 129):
            rows = [[rng.randrange(3) for _ in range(n)] for _ in range(3)]
            rows.append([2] * n)
            vectors = [Gf3Vector(r) for r in rows]
            assert _entry_rows(vectors, n).tolist() == rows
            assert _vectors(np.array(rows, np.int8)) == vectors

    @pytest.fixture(scope="class")
    def codes(self, registry):
        c1 = registry.entry("C1").build()
        c48 = registry.entry("C48").build()
        p84 = pless_symmetry(41)  # (I | M), n = 84: two lanes
        return {
            "C1": c1,
            "C48": c48,
            "C1 permuted": _column_permuted(c1, 1),
            "Pless 84": p84,
            "Pless 84 permuted": _column_permuted(p84, 2),
            "C1 + C1": _direct_sum(c1, _column_permuted(c1, 3)),
        }

    @pytest.mark.parametrize("label", ["C1", "C48", "C1 permuted", "Pless 84",
                                       "Pless 84 permuted", "C1 + C1"])
    def test_self_dual_codes(self, codes, label):
        code = codes[label]
        assert _entry_rows(code.basis, code.n).tolist() == [r.entries() for r in code.basis]
        assert code.is_self_dual() is True
        assert _naive_self_dual(code)

    @pytest.mark.parametrize("label", ["C1", "Pless 84"])
    def test_self_orthogonal_below_half_dimension(self, codes, label):
        # every pair of rows is orthogonal, but 2k < n
        code = Code(codes[label].n, list(codes[label].basis[:-1]))
        assert all(naive.vdot(a.entries(), b.entries()) == 0 for a in code.basis for b in code.basis)
        assert code.is_self_dual() is False
        assert not _naive_self_dual(code)

    @pytest.mark.parametrize("n", [4, 12, 36, 66, 84])
    def test_half_dimension_not_self_dual(self, n):
        rng = random.Random(n)
        while True:
            code = Code(n, [Gf3Vector([rng.randrange(3) for _ in range(n)]) for _ in range(n // 2)])
            if code.k == n // 2:
                break
        assert code.is_self_dual() is _naive_self_dual(code) is False

    def test_one_wrong_row(self, codes):
        # C1 with one row replaced by a word outside it: 2k = n still
        c1 = codes["C1"]
        rows = list(c1.basis)
        rows[5] = rows[5] + Gf3Vector([0] * 35 + [1])
        code = Code(36, rows)
        assert code.k == 18
        assert code.is_self_dual() is _naive_self_dual(code) is False

    @pytest.mark.parametrize("n", [0, 5, 64])
    def test_zero_dimension(self, n):
        code = Code(n, [])
        assert _entry_rows(code.basis, n).shape == (0, n)
        assert code.is_self_dual() is _naive_self_dual(code) is (n == 0)
