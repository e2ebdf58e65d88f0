"""Acceptance gate: the end-to-end checks the package promises to pass.

Each test prints one PASS line (visible under pytest -s) and enforces the
time budget it was given.  Expected values are frozen here, independent of
the library code under test.
"""

import random
import time

import naive
import pytest

from nega3 import (
    Code,
    CodeSpec,
    Gf3Vector,
    NeighborMembershipError,
    NeighborWeightError,
    SearchPlan,
    build_generator,
    count_weight,
    fingerprint,
    full_distribution,
    extended_qr48,
    is_self_dual,
    min_weight,
    near_extremal_family,
    neighbor,
    pless_symmetry,
    run_search,
)
from nega3.cli import main as cli_main
from test_gleason import W36, W48, W60_PARTIAL, W72_PARTIAL

LENGTH36_BUILDS = {"C1": 6, "C2": 7, "C3": 10, "C4": 91}


def test_length36_builds_with_certificates(registry):
    t0 = time.time()
    for label, beta in LENGTH36_BUILDS.items():
        spec = registry.entry(label).spec
        assert is_self_dual(spec)
        code = build_generator(spec)
        assert (code.n, code.k) == (36, 18)
        d = min_weight(code)
        assert d == 9
        # certificate: no codewords at the admissible weights below d
        assert count_weight(code, 3) == 0
        assert count_weight(code, 6) == 0
        assert count_weight(code, 9) == 8 * beta
    elapsed = time.time() - t0
    assert elapsed < 60
    print(f"\nACCEPTANCE [1/9] PASS: C1-C4 are self-dual [36,18] d=9 with "
          f"beta 6,7,10,91 ({elapsed:.1f}s)")


def test_extremal_builds_and_reference_code_fingerprints(registry):
    t0 = time.time()
    c36 = fingerprint(build_generator(registry.entry("C36").spec),
                      depth="extended")
    assert (c36.n, c36.k, c36.d, c36.alpha) == (36, 18, 12, 42840)
    p36 = fingerprint(pless_symmetry(17), depth="extended")
    assert p36 == c36

    c48 = fingerprint(build_generator(registry.entry("C48").spec))
    cp48 = fingerprint(build_generator(registry.entry("C'48").spec))
    assert (c48.d, c48.alpha) == (15, 415104)
    assert (cp48.d, cp48.alpha) == (15, 415104)
    assert fingerprint(extended_qr48()) == c48
    assert fingerprint(pless_symmetry(23)) == cp48
    elapsed = time.time() - t0
    assert elapsed < 1800
    print(f"\nACCEPTANCE [2/9] PASS: C36 extremal (42840 words at 12), "
          f"C48/C'48 extremal d=15 with 415104 words at 15, reference-code "
          f"fingerprints match ({elapsed:.1f}s)")


def test_stored_neighbors_reach_new_betas(registry):
    t0 = time.time()
    parent = build_generator(registry.entry("C2").spec)
    for label, beta in (("x1", 8), ("x2", 11)):
        moved = neighbor(parent, registry.entry(label).x)
        assert moved.is_self_dual()
        d = min_weight(moved)
        assert d == 9
        assert count_weight(moved, d) == 8 * beta
    elapsed = time.time() - t0
    assert elapsed < 60
    print(f"\nACCEPTANCE [3/9] PASS: neighbors of C2 at x1, x2 are "
          f"near-extremal with beta 8, 11 ({elapsed:.1f}s)")


def test_enumerator_families_reproduce_frozen_tables():
    t0 = time.time()
    for n, table in ((36, W36), (48, W48), (60, W60_PARTIAL),
                     (72, W72_PARTIAL)):
        fam = near_extremal_family(n)
        for e, (base, direction) in table.items():
            assert fam.base.coefficient(e) == base, (n, e)
            assert fam.direction.coefficient(e) == direction, (n, e)
    elapsed = time.time() - t0
    assert elapsed < 1
    print(f"\nACCEPTANCE [4/9] PASS: enumerator families reproduce all "
          f"frozen coefficients at lengths 36, 48, 60, 72 ({elapsed:.3f}s)")


def test_full_distribution_of_c1_matches_analytic(registry):
    t0 = time.time()
    code = build_generator(registry.entry("C1").spec)
    profile = full_distribution(code)
    poly = near_extremal_family(36).at(48)
    for e in range(0, 37):
        assert profile.counts.get(e, 0) == poly.coefficient(e), e
    assert sum(profile.counts.values()) == 3 ** 18
    elapsed = time.time() - t0
    assert elapsed < 900
    print(f"\nACCEPTANCE [5/9] PASS: measured distribution of C1 equals the "
          f"alpha=48 member of the length-36 family ({elapsed:.1f}s)")


@pytest.mark.parametrize("label", ["B280", "B544", "B1300"])
def test_length48_near_extremal_builds(registry, label):
    t0 = time.time()
    entry = registry.entry(label)
    beta = entry.expected_beta
    code = build_generator(entry.spec)
    assert code.is_self_dual()
    d = min_weight(code)
    assert d == 12
    assert count_weight(code, d) == 8 * beta
    elapsed = time.time() - t0
    assert elapsed < 600
    print(f"\nACCEPTANCE [6/9] PASS: {label} is self-dual [48,24] d=12 with "
          f"alpha=8*{beta} ({elapsed:.1f}s)")


def test_block2_search_equals_naive_brute_force(registry):
    t0 = time.time()
    found = list(run_search(SearchPlan(block_size=2), registry=registry))
    ours = {
        (tuple(f.spec.r1.entries()), tuple(f.spec.r2.entries()),
         tuple(f.spec.r3.entries()), f.d, f.alpha)
        for f in found
    }
    _, verified = naive.reduced_space_findings(2, 3)
    theirs = set()
    for r1, r2, r3 in verified:
        gen = naive.spec_generator_rows(2, list(r1), list(r2), list(r3))
        dist = naive.distribution(gen)
        d = naive.min_weight(gen)
        theirs.add((r1, r2, r3, d, dist[d]))
    assert ours == theirs

    merged = []
    for i in range(4):
        shard = SearchPlan(block_size=2, partition=(i, 4))
        merged.extend(run_search(shard, registry=registry))
    assert {f.sort_key() for f in merged} == {f.sort_key() for f in found}
    assert len(merged) == len(found)
    elapsed = time.time() - t0
    assert elapsed < 300
    print(f"\nACCEPTANCE [7/9] PASS: block-size-2 search equals the naive "
          f"brute force ({len(found)} findings) and shards union cleanly "
          f"({elapsed:.1f}s)")


class TestPropertySuites:
    def test_block_self_duality_against_direct_gram(self):
        rng = random.Random(20260816)
        agree = 0
        for _ in range(1000):
            m = rng.choice((2, 2, 3, 4))
            rows = [[rng.randrange(3) for _ in range(3 * m)] for _ in range(3)]
            ours = is_self_dual(CodeSpec(m, *(Gf3Vector(r) for r in rows)))
            direct = naive.spec_is_self_dual(m, *rows)
            assert ours == direct
            agree += 1
        print(f"\nACCEPTANCE [8a/9] PASS: block-form self-duality agrees with "
              f"direct gram on {agree} random specs")

    def test_self_dual_weights_divisible_by_three(self, registry):
        codes = [
            Code(4, [Gf3Vector([1, 0, 1, 1]), Gf3Vector([0, 1, 1, 2])]),
            pless_symmetry(5),
        ]
        codes += [build_generator(f.spec) for f in
                  run_search(SearchPlan(block_size=2), registry=registry)]
        for code in codes:
            assert code.is_self_dual()
            for w in naive.codewords([r.entries() for r in code.basis]):
                assert naive.vweight(w) % 3 == 0
        print(f"\nACCEPTANCE [8b/9] PASS: all codeword weights divisible by 3 "
              f"on {len(codes)} enumerable self-dual codes")

    def test_transforms_preserve_duality_and_distribution(self, registry):
        moves = [
            lambda m, rows: naive.row_move(rows, units=(2, 1, 2)),
            lambda m, rows: naive.column_move(m, rows, units=(1, 2, 2)),
            lambda m, rows: naive.row_move(rows, perm=(2, 0, 1)),
            lambda m, rows: naive.column_move(m, rows, perm=(1, 0, 2)),
        ]
        length12 = CodeSpec.from_entry_rows([
            [1, 1, 1, 1, 0, 1], [1, 2, 1, 2, 2, 0], [1, 0, 2, 0, 0, 0]])
        for spec in (length12, registry.entry("C1").spec):
            base = full_distribution(build_generator(spec)).counts
            rows = [r.entries() for r in spec.rows]
            for move in moves:
                moved = CodeSpec.from_entry_rows(move(spec.block_size, rows))
                assert is_self_dual(moved)
                assert full_distribution(build_generator(moved)).counts == base
        print("\nACCEPTANCE [8c/9] PASS: the four kinds of block move preserve "
              "self-duality and the full weight distribution at lengths 12 "
              "and 36")

    def test_family_coefficient_sums(self):
        for n in (12, 24, 36, 48, 60, 72):
            fam = near_extremal_family(n)
            assert sum(fam.base.coeffs.values()) == 3 ** (n // 2), n
            assert sum(fam.direction.coeffs.values()) == 0, n
        print("\nACCEPTANCE [8d/9] PASS: base coefficients sum to 3^(n/2) and "
              "direction coefficients to 0 for n in {12,...,72}")


class TestRefusals:
    def test_length6_search_refused_with_explanation(self, capsys):
        rc = cli_main(["search", "--n", "1"])
        err = capsys.readouterr().err
        assert rc == 2
        assert "length 6" in err
        assert "2 mod 4" in err
        assert "exist only for lengths divisible by 4" in err
        print("\nACCEPTANCE [9/9, part 1] PASS: length-6 search refused with "
              "the nonexistence explanation")

    def test_neighbor_clause_messages(self, registry):
        parent = build_generator(registry.entry("C2").spec)
        inside = parent.basis[0]
        with pytest.raises(NeighborMembershipError, match="lies in the code"):
            neighbor(parent, inside)
        bad_weight = Gf3Vector([1] + [0] * 35)
        with pytest.raises(NeighborWeightError, match="not divisible by 3"):
            neighbor(parent, bad_weight)
        print("\nACCEPTANCE [9/9, part 2] PASS: neighbor refusals name the "
              "violated clause (membership, weight)")
