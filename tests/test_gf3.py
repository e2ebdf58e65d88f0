"""GF(3) vectors and the int8 linear algebra of Code against the plain-list
reference."""

import random

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import naive
from nega3 import Code, Gf3Vector, LengthMismatchError, build_generator, extended_qr48, pless_symmetry
from nega3.gf3 import _dual_rows, _echelon, _entry_rows, _vectors
from nega3.weights import _planes


def _array(rows, width):
    return np.array(rows, dtype=np.int8).reshape(len(rows), width)


def _rref_from_the_right(rows):
    """The row reduction with columns scanned right to left: _echelon of
    the rows with their columns reversed, the rows and pivots read back."""
    n = len(rows[0]) if rows else 0
    out, pivots = _echelon(_array([r.entries()[::-1] for r in rows], n))
    return [Gf3Vector(r[::-1]) for r in out.tolist()], [n - 1 - p for p in pivots]


entry = st.integers(min_value=0, max_value=2)
vec_lists = st.lists(entry, min_size=1, max_size=40)

# spanning rows of width 1..13, from none up to one more row than the width
spans = st.integers(min_value=1, max_value=13).flatmap(
    lambda w: st.lists(st.lists(entry, min_size=w, max_size=w), max_size=w + 1).map(
        lambda rows: (w, [Gf3Vector(r) for r in rows])))


@st.composite
def small_spans(draw):
    """(width, rows): widths on one lane (1..13) and across the lane edge
    (60..70), up to six drawn rows with zero, repeated and dependent rows
    mixed in, so the span has at most 3^6 words to list."""
    w = draw(st.one_of(st.integers(min_value=1, max_value=13),
                       st.integers(min_value=60, max_value=70)))
    rows = draw(st.lists(st.lists(entry, min_size=w, max_size=w), max_size=6))
    for kind in draw(st.lists(st.sampled_from(["zero", "repeat", "sum"]), max_size=3)):
        if kind == "zero":
            rows.append([0] * w)
        elif rows and kind == "repeat":
            rows.append(list(draw(st.sampled_from(rows))))
        elif rows:
            a, b, c = draw(st.sampled_from(rows)), draw(st.sampled_from(rows)), draw(entry)
            rows.append(naive.vadd(a, naive.vscale(b, c)))
    return w, draw(st.permutations(rows))


class TestVector:
    @given(vec_lists)
    def test_random_ops(self, a):
        # what a vector offers: length, weight, indexing, iteration, and
        # equality and hashing by content
        va = Gf3Vector(a)
        assert len(va) == len(a)
        assert va.weight() == naive.vweight(a)
        assert [va[i] for i in range(len(a))] == list(va) == a
        assert va == Gf3Vector(list(a)) and hash(va) == hash(Gf3Vector(list(a)))
        assert va != Gf3Vector(a + [0])
        with pytest.raises(IndexError):
            va[len(a)]

    @given(vec_lists)
    def test_entries_roundtrip(self, a):
        assert Gf3Vector(a).entries() == a

    def test_entries_reduce_mod_3(self):
        # the constructor canonicalizes into the field; strict digit
        # validation is the vector-file parser's job
        assert Gf3Vector([0, 3, 4, 5]).entries() == [0, 0, 1, 2]

    def test_negative_index_and_non_integer_entry(self):
        # entries are indexed from 0 only, and a float is no digit
        v = Gf3Vector([1, 2])
        with pytest.raises(IndexError):
            v[-1]
        with pytest.raises(TypeError):
            Gf3Vector([0, 1.5])

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatchError):
            Code(2, [Gf3Vector([1, 0]), Gf3Vector([1])])
        with pytest.raises(LengthMismatchError):
            Code(2, [Gf3Vector([1, 0])]).contains(Gf3Vector([1, 0, 0]))


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

    @given(small_spans())
    def test_echelon_against_naive(self, span):
        # any integer rows, reduced mod 3 first, of any width
        w, rows = span
        want = naive.rref(rows)
        for shift in (0, 3, -3):
            out, pivots = _echelon(np.array(rows, dtype=np.int16).reshape(len(rows), w) + shift)
            assert out.dtype == np.int8 and out.shape == (len(want), w)
            assert out.tolist() == want
            assert pivots == [naive.pivot(r) for r in want]
            assert len(pivots) == naive.rank(rows)


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
            assert all(naive.vdot(a.entries(), b.entries()) == 0 for a in c.basis for b in d.basis)
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
        dual = [Gf3Vector(r) for r in _dual_rows(code._rows, code.pivots).tolist()]
        assert len(dual) == w - code.k
        assert all(naive.vdot(a.entries(), b.entries()) == 0 for a in code.basis for b in dual)
        want, pivots = _rref_from_the_right(code.dual().basis)
        assert dual[::-1] == want[: len(pivots)]
        assert sorted(pivots + list(code.pivots)) == list(range(w))

    @given(small_spans())
    def test_code_against_naive(self, span):
        # k, the basis both as vectors and as int8 rows, the pivots, the
        # dual and membership, against the textbook reduction, the dual
        # basis and the listed words of the span
        w, rows = span
        code = Code(w, [Gf3Vector(r) for r in rows])
        want = naive.rref(rows)
        assert code.k == naive.rank(rows) == len(want)
        assert [r.entries() for r in code.basis] == code._rows.tolist() == want
        assert code._rows.dtype == np.int8 and code._rows.shape == (code.k, w)
        assert code.pivots == tuple(naive.pivot(r) for r in want)
        dual_rows = naive.dual_basis(rows, w)
        assert _dual_rows(code._rows, code.pivots)[::-1].tolist() == dual_rows
        dual = code.dual()
        assert [r.entries() for r in dual.basis] == naive.rref(dual_rows)
        assert dual.k == w - code.k and dual.dual() == code
        words = set(naive.codewords(want)) if want else {(0,) * w}
        rng = random.Random(len(words))
        probes = rng.sample(sorted(words), min(len(words), 20))
        probes += [tuple(rng.randrange(3) for _ in range(w)) for _ in range(20)]
        for v in probes:
            assert code.contains(Gf3Vector(v)) == (v in words)

    @pytest.mark.parametrize("label", ["pless5", "pless11", "pless17", "pless23", "pless29",
                                       "qr48"])
    def test_classical_bases_are_the_reference_rref(self, label):
        # the reduced echelon form is canonical, so the textbook reduction
        # of any spanning set, here the basis mixed and with a dependent
        # row added, must give back the stored basis and pivots
        code = pless_symmetry(int(label[5:])) if label.startswith("pless") else extended_qr48()
        rows = [r.entries() for r in code.basis][::-1]
        mixed = [naive.vadd(a, naive.vscale(b, 2)) for a, b in zip(rows, rows[1:])] + rows[-1:]
        mixed.append(naive.vadd(mixed[0], mixed[1]))
        want = naive.rref(mixed)
        assert [r.entries() for r in code.basis] == code._rows.tolist() == want
        assert code.pivots == tuple(naive.pivot(r) for r in want)
        assert code.is_self_dual() and 2 * code.k == code.n


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

    def test_packer_roundtrip(self):
        # every width up to two full lanes and past them: the packer's
        # lanes bit by bit, and rows through vectors and back
        rng = random.Random(13)
        for n in range(1, 131):
            rows = [[rng.randrange(3) for _ in range(n)] for _ in range(3)] + [[1] * n, [2] * n]
            array = np.array(rows, np.int8)
            assert _entry_rows(_vectors(array), n).tolist() == rows
            lanes = -(-n // 64)
            for plane, value in zip(_planes(array), (1, 2)):
                assert plane.dtype == np.uint64 and plane.shape == (len(rows), lanes)
                got = [sum(int(x) << 64 * t for t, x in enumerate(r)) for r in plane]
                assert got == [naive.plane(r, value) for r in rows]

    @pytest.fixture(scope="class")
    def codes(self, registry):
        c1 = build_generator(registry.entry("C1").spec)
        c48 = build_generator(registry.entry("C48").spec)
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
        assert code._rows.tolist() == [r.entries() for r in code.basis]
        assert code.is_self_dual() is True
        assert _naive_self_dual(code)

    @pytest.mark.parametrize("label", ["C1", "C48", "C1 permuted", "Pless 84 permuted"])
    def test_basis_is_read_from_rows(self, codes, label):
        # _rows is the one copy: contiguous int8, which == and hash read,
        # and basis builds vectors from it and cannot be assigned
        code = codes[label]
        assert code._rows.dtype == np.int8 and code._rows.flags.c_contiguous
        assert code.basis == tuple(_vectors(code._rows))
        with pytest.raises(AttributeError):
            code.basis = ()
        copy = Code(code.n, list(code.basis))
        assert copy == code and hash(copy) == hash(code)

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
        rows[5] = Gf3Vector(naive.vadd(rows[5].entries(), [0] * 35 + [1]))
        code = Code(36, rows)
        assert code.k == 18
        assert code.is_self_dual() is _naive_self_dual(code) is False

    @pytest.mark.parametrize("n", [0, 5, 64])
    def test_zero_dimension(self, n):
        code = Code(n, [])
        assert code._rows.shape == (0, n) and code.basis == ()
        assert code.is_self_dual() is _naive_self_dual(code) is (n == 0)
