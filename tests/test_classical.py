"""Reference codes built from quadratic residues, and fingerprint comparison."""

import hashlib

import pytest

from nega3 import (
    Code,
    Gf3Vector,
    build_generator,
    extended_qr48,
    fingerprint,
    min_weight,
    pless_symmetry,
)


class TestPless:
    def test_q5_is_extended_golay(self):
        code = pless_symmetry(5)
        assert (code.n, code.k) == (12, 6)
        assert code.is_self_dual()
        fp = fingerprint(code)
        assert (fp.d, fp.alpha) == (6, 264)

    def test_q17(self):
        code = pless_symmetry(17)
        assert (code.n, code.k) == (36, 18)
        assert code.is_self_dual()

    def test_q23(self):
        code = pless_symmetry(23)
        assert (code.n, code.k) == (48, 24)
        assert code.is_self_dual()

    @pytest.mark.parametrize("q", [2, 7, 9, 15])
    def test_rejects_bad_q(self, q):
        # needs an odd prime with 3 a non-residue (q = 2 mod 3)
        with pytest.raises(ValueError):
            pless_symmetry(q)


class TestExtendedQR:
    def test_self_dual(self):
        code = extended_qr48()
        assert (code.n, code.k) == (48, 24)
        assert code.is_self_dual()

    def test_deterministic(self):
        a = extended_qr48()
        b = extended_qr48()
        assert a.basis == b.basis

    def test_reduced_basis_pinned(self):
        # the reduced basis of the code built from a degree-23 factor of
        # x^47 - 1, which the non-residue construction must reproduce
        rows = repr([r.entries() for r in extended_qr48().basis])
        assert hashlib.sha256(rows.encode()).hexdigest() == (
            "05c5cd9fbbecb8f1aa6174094e828d3e56cd91a6eb6201c7a7898996339fe55e")


@pytest.fixture(scope="module")
def tetracode():
    return Code(4, [Gf3Vector([1, 0, 1, 1]), Gf3Vector([0, 1, 1, 2])])


class TestFingerprint:
    def test_basic(self, tetracode):
        fp = fingerprint(tetracode)
        assert (fp.n, fp.k, fp.d, fp.alpha) == (4, 2, 3, 8)
        assert fp.deeper_counts == ()

    def test_extended_depth(self, tetracode):
        fp = fingerprint(tetracode, depth="extended")
        # d+3 and d+6 run past n here; those counts are simply 0
        assert fp.deeper_counts == ((6, 0), (9, 0))

    def test_unknown_depth(self, tetracode):
        with pytest.raises(ValueError):
            fingerprint(tetracode, depth="deep")

    def test_matches_requires_equal_depth(self, tetracode):
        a = fingerprint(tetracode)
        b = fingerprint(tetracode, depth="extended")
        assert a == fingerprint(tetracode)
        assert b == fingerprint(tetracode, depth="extended")
        # strict equality: mixed depths never match, by design
        assert a != b

    def test_distinguishes_codes(self, registry):
        c1 = fingerprint(build_generator(registry.entry("C1").spec))
        c2 = fingerprint(build_generator(registry.entry("C2").spec))
        assert c1 != c2  # alpha 48 vs 56

    def test_golay_vs_tetracode(self, tetracode):
        assert fingerprint(tetracode) != fingerprint(pless_symmetry(5))


class TestEquivalenceSignals:
    """Cross-checks between the residue codes and stored builds."""

    def test_p36_matches_c36(self, registry):
        ours = fingerprint(build_generator(registry.entry("C36").spec), depth="extended")
        theirs = fingerprint(pless_symmetry(17), depth="extended")
        assert ours == theirs
        assert dict(ours.deeper_counts) == {15: 1400256, 18: 18452280}

    def test_length48_quartet(self, registry):
        # C48 and C'48 are scanned over negashift orbits, QR48 and Pless(23)
        # on the generic path
        c48 = fingerprint(build_generator(registry.entry("C48").spec))
        cp48 = fingerprint(build_generator(registry.entry("C'48").spec))
        assert fingerprint(extended_qr48()) == c48
        assert fingerprint(pless_symmetry(23)) == cp48
        # the extremal distribution at length 48 is unique, so all four
        # share one fingerprint; weight statistics cannot split the pair
        assert c48 == cp48
        assert (c48.d, c48.alpha) == (15, 415104)
