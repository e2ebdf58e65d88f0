"""Stored build vectors, beta sets, and the vector-file parser."""

import shutil
from pathlib import Path

import pytest

from nega3 import (
    CodeSpec,
    RegistryError,
    VectorFileError,
    alpha_constraint,
    format_vector_record,
    ingest_vector_file,
    is_self_dual,
    load_registry,
)
from nega3.registry import gamma36, gamma48_1, gamma48_2


class TestLoad:
    def test_entry_counts(self, registry):
        kinds = {}
        for e in registry.entries.values():
            kinds[e.kind] = kinds.get(e.kind, 0) + 1
        assert kinds == {"spec": 24, "extremal-spec": 3, "neighbor-vector": 2}

    def test_expected_labels(self, registry):
        for label in ("C1", "C2", "C3", "C4", "C36", "C48", "C'48", "x1", "x2",
                      "B280", "B544", "B1300"):
            assert label in registry.entries

    def test_unknown_label(self, registry):
        with pytest.raises(RegistryError):
            registry.entry("C99")

    def test_spot_vector_c1(self, registry):
        # first row of the first stored length-36 build, frozen digit by digit
        spec = registry.entry("C1").spec
        assert spec.r1.entries() == [
            0, 0, 1, 0, 0, 2, 0, 0, 1, 1, 1, 1, 1, 2, 2, 0, 1, 1]
        assert spec.block_size == 6

    def test_neighbor_vectors_have_parent_c2(self, registry):
        for label in ("x1", "x2"):
            e = registry.entry(label)
            assert e.parent == "C2"
            assert e.x.weight() == 12
            assert len(e.x) == 36

    def test_checksum_guard(self, tmp_path, registry):
        src = Path(__file__).resolve().parent.parent / "src" / "nega3" / "data"
        for name in ("specs36.txt", "specs48.txt", "neighbors36.txt", "gamma.json"):
            shutil.copy(src / name, tmp_path / name)
        text = (tmp_path / "specs36.txt").read_text()
        (tmp_path / "specs36.txt").write_text(text.replace("2", "1", 1))
        with pytest.raises(RegistryError, match="checksum"):
            load_registry(tmp_path)

    def test_env_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("NEGA3_DATA", str(tmp_path))
        with pytest.raises(RegistryError):
            load_registry()  # empty directory: data files missing


class TestGammaSets:
    def test_cardinalities(self, registry):
        sizes = {name: len(g.members) for name, g in registry.gamma_sets.items()}
        assert sizes == {
            "Gamma36": 56,
            "Gamma48,1": 86,
            "Gamma48,2": 61,
            "Gamma48,3": 181,
            "Gamma48,4": 83,
            "Gamma48,5": 20,
            "Gamma60,3": 275,
            "Prior36A": 74,
            "Prior36B": 2,
        }

    def test_formula_expansions(self):
        g36 = gamma36()
        assert {6, 7, 10, 91, 85, 90, 93} <= g36
        assert 8 not in g36 and 11 not in g36
        assert max(g36) == 93

        g481 = gamma48_1()
        assert {33, 34, 107, 246} <= g481
        assert 35 not in g481 and 108 not in g481

    def test_gamma48_2_exclusions(self):
        g = gamma48_2()
        for bad in range(222, 277, 6):
            assert bad not in g, bad
        assert {180, 217, 271, 281} <= g

    def test_gamma48_1_multiplier(self, registry):
        g = registry.gamma_sets["Gamma48,1"]
        assert g.alpha_multiplier == 48
        # rescaled into alpha/8 units for cross-set comparison
        assert g.beta8_members() == frozenset(6 * b for b in g.members)

    def test_origins(self, registry):
        assert registry.gamma_sets["Gamma36"].origin == "found"
        assert registry.gamma_sets["Gamma48,5"].origin == "found"
        assert registry.gamma_sets["Gamma60,3"].origin == "found"
        assert registry.gamma_sets["Prior36A"].origin == "prior"
        assert registry.gamma_sets["Gamma48,3"].origin == "prior"

    def test_all_members_inside_admissible_range(self, registry):
        for g in registry.gamma_sets.values():
            rng = alpha_constraint(g.length)
            for beta in g.beta8_members():
                assert rng.beta_min <= beta <= rng.beta_max, (g.name, beta)

    def test_lengths_partition(self, registry):
        at36 = {g.name for g in registry.sets_for_length(36)}
        assert at36 == {"Gamma36", "Prior36A", "Prior36B"}
        assert registry.prior_knowledge_complete(36)
        assert registry.prior_knowledge_complete(48)
        assert not registry.prior_knowledge_complete(60)


class TestIngest:
    def test_roundtrip(self, registry):
        spec = registry.entry("C1").spec
        text = format_vector_record(spec)
        (entry,) = ingest_vector_file(text.splitlines())
        assert entry.spec == spec
        assert entry.label == "ingest-1"

    def test_two_records_and_comments(self):
        lines = [
            "# census output",
            "r1: 1 1 1 1 0 1",
            "r2: 1 2 1 2 2 0",
            "r3: 1 0 2 0 0 0",
            "",
            "1, 2, 1, 1, 0, 1",  # bare rows, comma separated
            "(1 1 2 1 1 0)",
            "0 1 1 0 0 0",
        ]
        entries = ingest_vector_file(lines)
        assert [e.label for e in entries] == ["ingest-1", "ingest-2"]
        assert all(e.spec.block_size == 2 for e in entries)
        assert all(is_self_dual(e.spec) for e in entries)

    def test_empty_file(self):
        assert ingest_vector_file([]) == []
        assert ingest_vector_file(["# only a comment", ""]) == []

    def test_alphabet_error_carries_line(self):
        lines = ["r1: 1 0 0 0 0 0", "r2: 0 3 0 0 0 0", "r3: 1 0 0 0 0 0"]
        with pytest.raises(VectorFileError, match="line 2") as exc:
            ingest_vector_file(lines)
        assert "'3'" in str(exc.value)

    def test_missing_row(self):
        with pytest.raises(VectorFileError, match="missing"):
            ingest_vector_file(["r1: 1 0 0", "r2: 1 0 0", ""])

    def test_row_length_mismatch(self):
        with pytest.raises(VectorFileError, match="different lengths"):
            ingest_vector_file(["r1: 1 0 0", "r2: 1 0 0", "r3: 1 0"])

    def test_not_multiple_of_three(self):
        with pytest.raises(VectorFileError, match="multiple of 3"):
            ingest_vector_file(["r1: 1 0", "r2: 1 0", "r3: 1 0"])

    def test_duplicate_key(self):
        with pytest.raises(VectorFileError, match="duplicate"):
            ingest_vector_file(["r1: 1 0 0", "r1: 1 0 0"])

    def test_path_source(self, tmp_path, registry):
        p = tmp_path / "specs.txt"
        spec = registry.entry("C2").spec
        p.write_text(format_vector_record(spec) + "\n")
        (entry,) = ingest_vector_file(p)
        assert entry.spec == spec

    def test_length60_spec_would_load(self):
        # format does not cap the length: a synthetic length-60 record parses
        row = [1, 0] + [0] * 28
        text = "\n".join("r%d: %s" % (i, " ".join(map(str, row))) for i in (1, 2, 3))
        (entry,) = ingest_vector_file(text.splitlines())
        assert entry.length == 60
        assert isinstance(entry.spec, CodeSpec)
