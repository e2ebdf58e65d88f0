"""Exact enumerator families.

The expected (base, direction) pairs below are frozen reference data; the
family solver must reproduce every one of them exactly.  Lengths 60 and 72
have only the leading and trailing coefficients frozen (the middle ones are
checked by the structural sum properties instead).
"""

import pytest

import naive
from nega3 import (
    Code,
    Gf3Vector,
    alpha_constraint,
    full_distribution,
    gleason_basis,
    near_extremal_family,
)

LENGTHS = [12, 24, 36, 48, 60, 72, 84, 96, 108, 120, 132, 144]

W36 = {
    0: (1, 0),
    9: (0, 1),
    12: (42840, -9),
    15: (1400256, 36),
    18: (18452280, -84),
    21: (90370368, 126),
    24: (162663480, -126),
    27: (97808480, 84),
    30: (16210656, -36),
    33: (471240, 9),
    36: (888, -1),
}

W48 = {
    0: (1, 0),
    12: (0, 1),
    15: (415104, -12),
    18: (20167136, 66),
    21: (497709696, -220),
    24: (5745355200, 495),
    27: (31815369344, -792),
    30: (83368657152, 924),
    33: (99755406432, -792),
    36: (50852523072, 495),
    39: (9794378880, -220),
    42: (573051072, 66),
    45: (6503296, -12),
    48: (96, 1),
}

W60_PARTIAL = {
    0: (1, 0),
    15: (0, 1),
    18: (3901080, -15),
    21: (241456320, 105),
    24: (8824242960, -455),
    27: (172074038080, 1365),
    30: (1850359081824, -3003),
    33: (11014750094040, 5005),
    57: (71451360, 15),
    60: (41184, -1),
}

W72_PARTIAL = {
    0: (1, 0),
    18: (0, 1),
    21: (36213408, -18),
    24: (2634060240, 153),
    27: (126284566912, -816),
    30: (3525613242624, 3060),
    33: (59358705673680, -8568),
    36: (607797076070496, 18564),
    69: (707807520, -18),
    72: (-115728, 1),
}


class TestFamilies:
    @pytest.mark.parametrize(
        "n,table,complete",
        [(36, W36, True), (48, W48, True), (60, W60_PARTIAL, False), (72, W72_PARTIAL, False)],
    )
    def test_reference_coefficients(self, n, table, complete):
        fam = near_extremal_family(n)
        for e, (base, direction) in table.items():
            assert fam.base.get(e, 0) == base, (n, e)
            assert fam.direction.get(e, 0) == direction, (n, e)
        if complete:
            # nothing outside the frozen support
            assert set(fam.base) <= set(table)
            assert set(fam.direction) <= set(table)

    @pytest.mark.parametrize("n", LENGTHS)
    def test_coefficient_sums(self, n):
        fam = near_extremal_family(n)
        assert sum(fam.base.values()) == 3 ** (n // 2)
        assert sum(fam.direction.values()) == 0

    @pytest.mark.parametrize("n", LENGTHS)
    def test_support_is_multiples_of_three(self, n):
        fam = near_extremal_family(n)
        for e in sorted(fam.base) + sorted(fam.direction):
            assert e % 3 == 0
            assert 0 <= e <= n
        # no weights strictly between 0 and the class minimum
        low = 3 * (n // 12)
        for e in sorted(fam.base):
            assert e == 0 or e >= low
        for e in sorted(fam.direction):
            assert e >= low

    @pytest.mark.parametrize("n", LENGTHS)
    def test_defining_pattern(self, n):
        # at weights 0, 3, ..., 3m the base reads (1, 0, ..., 0) and the
        # direction (0, ..., 0, 1)
        m = n // 12
        fam = near_extremal_family(n)
        assert [fam.base.get(3 * j, 0) for j in range(m + 1)] == [1] + [0] * m
        assert [fam.direction.get(3 * j, 0) for j in range(m + 1)] == [0] * m + [1]

    def test_unsupported_length(self):
        with pytest.raises(ValueError):
            near_extremal_family(40)
        with pytest.raises(ValueError):
            near_extremal_family(0)

    def test_distribution_from_alpha(self):
        poly = near_extremal_family(36).at(48)
        assert poly.get(9, 0) == 48
        assert poly.get(12, 0) == 42840 - 9 * 48
        assert min(poly.values()) >= 0


class TestBasis:
    def test_length4_is_the_tetracode_enumerator(self):
        (g,) = gleason_basis(4)
        tetra = naive.distribution([[1, 0, 1, 1], [0, 1, 1, 2]])
        assert g == tetra

    def test_length12_spans_golay(self):
        # the base of the length-12 family is the unique enumerator with no
        # weight-3 words: the extended Golay one
        fam = near_extremal_family(12)
        golay = fam.at(0)
        assert golay == {0: 1, 6: 264, 9: 440, 12: 24}

    @pytest.mark.parametrize("n", range(4, 145, 4))
    def test_unit_lower_triangular(self, n):
        # basis[b] is y^(3b) plus higher terms, which forward substitution needs
        basis = gleason_basis(n)
        for b, p in enumerate(basis):
            assert [p.get(3 * j, 0) for j in range(b + 1)] == [0] * b + [1], (n, b)

    def test_basis_dimensions(self):
        assert len(gleason_basis(12)) == 2
        assert len(gleason_basis(36)) == 4
        assert len(gleason_basis(48)) == 5


class TestAlphaConstraint:
    @pytest.mark.parametrize(
        "n,beta_min,beta_max",
        [(36, 1, 111), (48, 1, 4324), (60, 1, 5148), (72, 14466, 251482)],
    )
    def test_ranges(self, n, beta_min, beta_max):
        c = alpha_constraint(n)
        assert (c.divisor, c.beta_min, c.beta_max) == (8, beta_min, beta_max)
        assert c.contains_alpha(8 * beta_min)
        assert c.contains_alpha(8 * beta_max)
        assert not c.contains_alpha(8 * beta_min - 8)
        assert not c.contains_alpha(8 * beta_max + 8)
        assert not c.contains_alpha(8 * beta_min + 1)

    @pytest.mark.parametrize("n", [36, 48, 60, 72])
    def test_ends_bracket_nonnegativity(self, n):
        # inside the admissible range the enumerator stays nonnegative at
        # the ends; one step past each end a coefficient goes negative
        fam = near_extremal_family(n)
        c = alpha_constraint(n)
        assert min(fam.at(8 * c.beta_min).values()) >= 0
        assert min(fam.at(8 * c.beta_max).values()) >= 0
        assert min(fam.at(8 * (c.beta_max + 1)).values()) < 0
        if c.beta_min > 1:  # a lower bound above 1 must also be forced
            assert min(fam.at(8 * (c.beta_min - 1)).values()) < 0

    def test_unsupported_length(self):
        with pytest.raises(ValueError):
            alpha_constraint(24)


class TestAgainstRealCodes:
    def test_tetracode_matches_basis(self):
        c = Code(4, [Gf3Vector([1, 0, 1, 1]), Gf3Vector([0, 1, 1, 2])])
        wp = full_distribution(c)
        (g,) = gleason_basis(4)
        assert wp.counts == g
