"""Search planning, enumeration order, sharding, checkpoints, neighbors."""

import itertools
import json
from concurrent.futures import Future

import naive
import pytest

from nega3 import (
    Code,
    CodeSpec,
    Finding,
    GammaSet,
    Gf3Vector,
    InternalInconsistencyError,
    LengthMismatchError,
    NeighborCodeError,
    NeighborMembershipError,
    NeighborWeightError,
    NoveltyReport,
    Registry,
    RegistryError,
    SearchPlan,
    build_generator,
    enumerate_candidates,
    is_self_dual,
    min_weight,
    neighbor,
    neighbor_sweep,
    novelty_report,
    read_findings,
    run_search,
)
from nega3 import search
from nega3.search import _block_pool, _DualSpace


class TestPlan:
    def test_defaults(self):
        plan = SearchPlan(block_size=6)
        assert plan.length == 36
        assert plan.target_min_weight == 9

    def test_extremal_target(self):
        assert SearchPlan(block_size=6, target="extremal").target_min_weight == 12
        assert SearchPlan(block_size=8, target="extremal").target_min_weight == 15
        assert SearchPlan(block_size=8).target_min_weight == 12

    def test_validation(self):
        with pytest.raises(ValueError):
            SearchPlan(block_size=0)
        with pytest.raises(ValueError):
            SearchPlan(block_size=6, target="best")
        with pytest.raises(ValueError):
            SearchPlan(block_size=6, mode="sampled")  # budget required
        with pytest.raises(ValueError):
            SearchPlan(block_size=6, mode="sampled", budget=0)
        with pytest.raises(ValueError):
            SearchPlan(block_size=6, partition=(3, 3))
        with pytest.raises(ValueError):
            SearchPlan(block_size=6, partition=(-1, 2))
        with pytest.raises(ValueError):
            SearchPlan(block_size=6, seed=-1)


class TestEnumerationOrder:
    def test_block_pool_m2(self):
        pool = _block_pool(2)
        assert [p.f for p in pool] == [0, 1, 3, 4, 7]

    def test_block_pool_m3(self):
        pool = _block_pool(3)
        assert len(pool) == 1 + (27 - 1) // 2
        fs = [p.f for p in pool]
        assert fs == sorted(fs)
        for p in pool[1:]:
            first = p.vec.first_nonzero()
            assert first is not None and first[1] == 1

    def test_dual_space_ascending(self):
        # orthogonal complement of one length-6 row, walked in f order
        rows = [Gf3Vector([1, 1, 0, 2, 0, 2])]
        space = _DualSpace(rows, 6)
        got = [naive.f_value(v.entries()) for v in space.ascending_f(3 ** 6)]
        assert got == sorted(got)
        assert len(got) == 3 ** 5 - 1  # nonzero vectors only

    def test_dual_space_matches_brute_force(self):
        rows = [Gf3Vector([1, 0, 1, 1, 0, 0]), Gf3Vector([0, 1, 2, 0, 1, 0])]
        space = _DualSpace(rows, 6)
        ours = [v.entries() for v in space.ascending_f(200)]
        brute = []
        for entries in itertools.product(range(3), repeat=6):
            w = list(entries)
            if w == [0] * 6 or naive.f_value(w) > 200:
                continue
            if all(naive.vdot(w, r.entries()) == 0 for r in rows):
                brute.append(w)
        brute.sort(key=naive.f_value)
        assert ours == brute


def _as_key(finding):
    s = finding.spec
    return (tuple(s.r1.entries()), tuple(s.r2.entries()), tuple(s.r3.entries()))


@pytest.fixture(scope="module")
def n2_results(registry):
    plan = SearchPlan(block_size=2, target="near-extremal")
    return list(run_search(plan, registry=registry))


class TestExhaustive:
    def test_matches_naive_brute_force(self, n2_results):
        structural, verified = naive.reduced_space_findings(2, 3)
        assert {_as_key(f) for f in n2_results} == set(verified)

    def test_all_results_check_out(self, n2_results):
        for f in n2_results:
            assert is_self_dual(f.spec)
            code = build_generator(f.spec)
            assert min_weight(code) == f.d >= 3
            assert naive.conditions(2, [r.entries() for r in f.spec.rows], 3)

    def test_output_sorted_by_f_triple(self, n2_results):
        keys = [f.sort_key() for f in n2_results]
        assert keys == sorted(keys)

    def test_extremal_target_empty_at_n2(self, registry):
        plan = SearchPlan(block_size=2, target="extremal")
        assert list(run_search(plan, registry=registry)) == []

    def test_shard_union_equals_whole(self, registry, n2_results):
        merged = []
        for i in range(4):
            plan = SearchPlan(block_size=2, partition=(i, 4))
            merged.extend(run_search(plan, registry=registry))
        merged = list(merged)
        assert {_as_key(f) for f in merged} == {_as_key(f) for f in n2_results}
        assert len(merged) == len(n2_results)

    def test_workers_preserve_order(self, registry, n2_results):
        plan = SearchPlan(block_size=2)
        par = list(run_search(plan, registry=registry, workers=3))
        assert [_as_key(f) for f in par] == [_as_key(f) for f in n2_results]

    def test_workers_use_callers_registry(self):
        # beta sets and novelty come from the registry passed in, whatever
        # the worker count
        custom = Registry(gamma_sets={"g12": GammaSet("g12", 12, frozenset({1}))})
        plan = SearchPlan(block_size=2)
        seq = [f.to_record() for f in run_search(plan, registry=custom)]
        par = [f.to_record() for f in run_search(plan, registry=custom, workers=2)]
        assert par == seq
        assert any(r["sets"] == ["g12"] and not r["novelty"] for r in seq)

    def test_one_build_per_verified_spec(self, monkeypatch):
        # a unit builds each verified spec once, through the search module's
        # binding of nega.build_generator, where the benchmark tracer counts
        # the specs verified
        built = []
        real = search.build_generator
        monkeypatch.setattr(search, "build_generator",
                            lambda spec: built.append(spec) or real(spec))
        plan = SearchPlan(block_size=4, partition=(0, 64))
        total = 0
        for unit in search._units(plan):
            del built[:]
            found = search._run_unit(plan, unit)
            assert built == list(search._unit_specs(plan, unit, verified=True))
            assert {spec for spec, _ in found} <= set(built)
            total += len(built)
            if total > 200:
                break
        assert total > 200

    def test_a_code_that_is_not_self_dual_is_refused(self, monkeypatch):
        # the identities are trusted only as far as the built code agrees
        plan = SearchPlan(block_size=2)
        unit = next(u for u in search._units(plan) if search._run_unit(plan, u))
        monkeypatch.setattr(Code, "is_self_dual", lambda code: False)
        with pytest.raises(InternalInconsistencyError, match="not self-dual"):
            search._run_unit(plan, unit)

    def test_candidates_without_verification(self):
        structural, _ = naive.reduced_space_findings(2, 3)
        plan = SearchPlan(block_size=2)
        cands = [(tuple(s.r1.entries()), tuple(s.r2.entries()),
                  tuple(s.r3.entries())) for s in enumerate_candidates(plan)]
        assert set(cands) == set(structural)
        assert len(cands) == len(structural)

    def test_odd_block_size_yields_nothing(self, registry, caplog):
        plan = SearchPlan(block_size=1)
        with caplog.at_level("WARNING", logger="nega3.search"):
            assert list(run_search(plan, registry=registry)) == []
        assert "no self-dual code" in caplog.text


class TestSampled:
    def test_deterministic_in_seed(self, registry):
        plan = SearchPlan(block_size=2, mode="sampled", seed=11, budget=150)
        a = list(run_search(plan, registry=registry))
        b = list(run_search(plan, registry=registry))
        assert [_as_key(f) for f in a] == [_as_key(f) for f in b]

    def test_worker_count_invisible(self, registry):
        plan = SearchPlan(block_size=2, mode="sampled", seed=11, budget=150)
        seq = list(run_search(plan, registry=registry, workers=1))
        par = list(run_search(plan, registry=registry, workers=3))
        assert [_as_key(f) for f in seq] == [_as_key(f) for f in par]

    def test_results_subset_of_exhaustive(self, registry):
        plan = SearchPlan(block_size=2, mode="sampled", seed=5, budget=200)
        sampled = {_as_key(f) for f in run_search(plan, registry=registry)}
        full = {_as_key(f)
                for f in run_search(SearchPlan(block_size=2), registry=registry)}
        assert sampled <= full
        assert sampled  # budget 200 on a 6-element space: must hit something

    def test_partition_splits_trials(self, registry):
        whole = list(run_search(
            SearchPlan(block_size=2, mode="sampled", seed=3, budget=120),
            registry=registry))
        pieces = []
        for i in range(3):
            pieces.extend(run_search(
                SearchPlan(block_size=2, mode="sampled", seed=3, budget=120,
                           partition=(i, 3)),
                registry=registry))
        assert {_as_key(f) for f in pieces} == {_as_key(f) for f in whole}

    def test_no_duplicate_specs(self, registry):
        plan = SearchPlan(block_size=2, mode="sampled", seed=7, budget=400)
        found = list(run_search(plan, registry=registry))
        keys = [_as_key(f) for f in found]
        assert len(keys) == len(set(keys))


def _records(findings):
    return [f.to_record() for f in findings]


def _log_lines(path):
    return [json.loads(line) for line in path.read_text().splitlines()]


class TestCheckpoint:
    def test_resume_completes_interrupted_run(self, tmp_path, registry):
        path = tmp_path / "ck.json"
        plan = SearchPlan(block_size=2)
        reference = _records(run_search(plan, registry=registry))

        # first pass, interrupted after a slice of the generator
        gen = run_search(plan, registry=registry, checkpoint=path)
        partial = _records(itertools.islice(gen, 2))
        gen.close()
        assert partial == reference[:2]
        assert "complete" not in _log_lines(path)[0]

        resumed = _records(run_search(plan, registry=registry, checkpoint=path))
        assert resumed == reference
        (doc,) = _log_lines(path)
        assert doc["complete"] and doc["findings"] == reference

    def test_log_is_header_then_one_line_per_unit(self, tmp_path, registry):
        path = tmp_path / "ck.json"
        plan = SearchPlan(block_size=2)
        gen = run_search(plan, registry=registry, checkpoint=path)
        first = next(gen)
        header, *units = _log_lines(path)
        assert header == {"version": 2, "plan": plan.to_dict()}
        # the first finding's unit is merged, and logged, before it is yielded
        assert units[-1]["unit"] == first.sort_key()[1]
        assert units[-1]["findings"][0] == first.to_record()
        assert all(u["findings"] == [] for u in units[:-1])
        gen.close()

    def test_torn_last_line_dropped_and_cut(self, tmp_path, registry):
        path = tmp_path / "ck.json"
        plan = SearchPlan(block_size=2)
        reference = _records(run_search(plan, registry=registry))
        gen = run_search(plan, registry=registry, checkpoint=path)
        list(itertools.islice(gen, 2))
        gen.close()
        logged = path.read_text()
        with open(path, "a") as f:
            f.write('{"unit": 286, "findings": [{"kind": "sp')  # killed mid-write

        # resume for one more unit: the torn piece is gone before the append
        gen = run_search(plan, registry=registry, checkpoint=path)
        assert _records(itertools.islice(gen, 3)) == reference[:3]
        gen.close()
        text = path.read_text()
        assert text.startswith(logged)
        assert [u["unit"] for u in _log_lines(path)[1:]][-2:] == [283, 286]

        resumed = _records(run_search(plan, registry=registry, checkpoint=path))
        assert resumed == reference
        assert _log_lines(path)[0]["complete"]

    def test_finished_checkpoint_short_circuits(self, tmp_path, registry, monkeypatch):
        path = tmp_path / "ck.json"
        plan = SearchPlan(block_size=2)
        first = _records(run_search(plan, registry=registry, checkpoint=path))
        monkeypatch.setattr(search, "_run_unit", _no_unit_runs)
        again = _records(run_search(plan, registry=registry, checkpoint=path))
        assert again == first

    def test_plan_mismatch_rejected(self, tmp_path, registry):
        path = tmp_path / "ck.json"
        list(run_search(SearchPlan(block_size=2), registry=registry,
                        checkpoint=path))
        with pytest.raises(ValueError, match="plan"):
            run_search(SearchPlan(block_size=2, target="extremal"),
                       registry=registry, checkpoint=path)

    @pytest.mark.parametrize("text", [
        # the single-document format written before the log
        json.dumps({"version": 1, "plan": SearchPlan(block_size=2).to_dict(),
                    "r1_done_f": None, "r1_active_f": None, "r2_done_f": None,
                    "complete": False, "findings": []}, indent=1) + "\n",
        '{"version": 1}\n',
        "not a checkpoint",
        "",
    ], ids=["v1-document", "v1-line", "no-newline", "empty"])
    def test_unknown_version_rejected(self, tmp_path, registry, text):
        path = tmp_path / "ck.json"
        path.write_text(text)
        with pytest.raises(ValueError, match="unknown checkpoint version"):
            run_search(SearchPlan(block_size=2), registry=registry, checkpoint=path)
        assert path.read_text() == text

    @pytest.mark.parametrize("workers", [1, 2])
    def test_sampled_stopped_run_resumes(self, tmp_path, registry, monkeypatch, workers):
        # stopped, as by a kill, once 150 of 400 trials have run, inline or in a
        # pool, then resumed with the same worker count
        path = tmp_path / "ck.json"
        plan = SearchPlan(block_size=2, mode="sampled", seed=7, budget=400)
        reference = _records(run_search(plan, registry=registry))
        with monkeypatch.context() as m:
            m.setattr(search, "_run_unit", _runs_then_stops(150))
            m.setattr(search, "ProcessPoolExecutor", _RecordingPool([], []))
            with pytest.raises(_Stopped):
                list(run_search(plan, registry=registry, checkpoint=path, workers=workers))
        header, *units = _log_lines(path)
        assert header == {"version": 2, "plan": plan.to_dict()}
        assert 0 < len(units) <= 150
        assert [u["unit"] for u in units] == list(range(len(units)))  # a line per trial

        resumed = _records(run_search(plan, registry=registry, checkpoint=path,
                                      workers=workers))
        assert resumed == reference
        (doc,) = _log_lines(path)
        assert doc["complete"] and doc["findings"] == reference

    def test_complete_sampled_log_replays(self, tmp_path, registry, monkeypatch):
        path = tmp_path / "ck.json"
        # 400 trials over the six length-12 specs: most are found many times
        plan = SearchPlan(block_size=2, mode="sampled", seed=7, budget=400)
        first = list(run_search(plan, registry=registry, checkpoint=path))
        keys = [f.sort_key() for f in first]
        assert keys == sorted(set(keys))  # sorted, each spec once
        (doc,) = _log_lines(path)
        assert doc["complete"] and doc["findings"] == _records(first)
        monkeypatch.setattr(search, "_run_unit", _no_unit_runs)
        again = _records(run_search(plan, registry=registry, checkpoint=path))
        assert again == _records(first)

    def test_pool_run_resumes_inline(self, tmp_path, registry):
        # stopped while two worker processes run units, resumed with one
        path = tmp_path / "ck.json"
        plan = SearchPlan(block_size=2)
        reference = _records(run_search(plan, registry=registry))
        gen = run_search(plan, registry=registry, checkpoint=path, workers=2)
        assert _records(itertools.islice(gen, 3)) == reference[:3]
        gen.close()
        resumed = _records(run_search(plan, registry=registry, checkpoint=path,
                                      workers=1))
        assert resumed == reference

    def test_inline_run_resumes_in_pool(self, tmp_path, registry):
        path = tmp_path / "ck.json"
        plan = SearchPlan(block_size=2)
        reference = _records(run_search(plan, registry=registry))
        gen = run_search(plan, registry=registry, checkpoint=path)
        list(itertools.islice(gen, 1))
        gen.close()
        resumed = _records(run_search(plan, registry=registry, checkpoint=path,
                                      workers=2))
        assert resumed == reference


def _no_unit_runs(plan, unit):
    raise AssertionError(f"unit {unit} ran again")


class _Stopped(Exception):
    pass


def _runs_then_stops(count):
    """A _run_unit that runs count units, then raises _Stopped."""
    run_unit = search._run_unit
    calls = itertools.count()

    def run(plan, unit):
        if next(calls) == count:
            raise _Stopped(unit)
        return run_unit(plan, unit)
    return run


class _RecordingPool:
    """Stands in for ProcessPoolExecutor: records each pool's size and the
    units submitted, and runs every call inline, starting no process."""

    def __init__(self, sizes, submitted):
        self.sizes = sizes
        self.submitted = submitted

    def __call__(self, max_workers):
        self.sizes.append(max_workers)
        return self

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        pass

    def submit(self, fn, *args):
        self.submitted.append(args[1])
        fut = Future()
        fut.set_result(fn(*args))
        return fut


@pytest.fixture
def pool_recorder(monkeypatch):
    sizes, submitted = [], []
    monkeypatch.setattr(search, "ProcessPoolExecutor", _RecordingPool(sizes, submitted))
    monkeypatch.setattr(search.os, "cpu_count", lambda: 4)
    return sizes, submitted


class TestPoolSize:
    def test_capped_by_cores(self, registry, pool_recorder, n2_results):
        sizes, _ = pool_recorder
        found = list(run_search(SearchPlan(block_size=2), registry=registry,
                                workers=100000))
        assert sizes == [4]
        assert _records(found) == _records(n2_results)

    def test_capped_by_pending_units(self, registry, pool_recorder):
        sizes, _ = pool_recorder
        # shards i of 4 of the 11 length-12 r1 values hold 3, 3, 3 and 2
        for index in (1, 3):
            list(run_search(SearchPlan(block_size=2, partition=(index, 4)),
                            registry=registry, workers=100000))
        assert sizes == [3, 2]
        # one pending unit runs inline
        list(run_search(SearchPlan(block_size=2, partition=(10, 11)),
                        registry=registry, workers=100000))
        assert sizes == [3, 2]

    def test_no_pool_without_pending_units(self, tmp_path, registry, pool_recorder,
                                           n2_results):
        sizes, submitted = pool_recorder
        assert list(run_search(SearchPlan(block_size=2, partition=(15, 16)),
                               registry=registry, workers=100000)) == []
        # every unit logged, the run killed before it was marked complete
        path = tmp_path / "ck.json"
        plan = SearchPlan(block_size=2)
        gen = run_search(plan, registry=registry, checkpoint=path)
        list(itertools.islice(gen, len(n2_results)))
        gen.close()
        assert len(_log_lines(path)) == 1 + 11
        resumed = list(run_search(plan, registry=registry, checkpoint=path,
                                  workers=100000))
        assert _records(resumed) == _records(n2_results)
        assert sizes == [] and submitted == []

    def test_findings_stream_before_the_last_unit(self, registry, pool_recorder):
        _, submitted = pool_recorder
        plan = SearchPlan(block_size=4, partition=(0, 64))
        gen = run_search(plan, registry=registry, workers=2)
        first = next(gen)
        gen.close()
        assert first.spec is not None
        assert len(submitted) < 64 == len(list(search._units(plan)))


@pytest.fixture(scope="module")
def parent(registry):
    return build_generator(registry.entry("C2").spec)


class TestNeighbor:
    def test_known_neighbors(self, registry, parent):
        for label, beta in (("x1", 8), ("x2", 11)):
            x = registry.entry(label).x
            moved = neighbor(parent, x)
            assert moved.k == parent.k
            assert moved.is_self_dual()
            code = Code(36, list(parent.basis) + [x])
            assert code.k == parent.k + 1  # x genuinely outside

    def test_length_clause(self, parent):
        with pytest.raises(LengthMismatchError):
            neighbor(parent, Gf3Vector.zeros(12))

    def test_weight_clause(self, parent):
        x = Gf3Vector([1] + [0] * 35)
        with pytest.raises(NeighborWeightError):
            neighbor(parent, x)

    def test_code_clause(self):
        not_sd = Code(4, [Gf3Vector([1, 0, 0, 0]), Gf3Vector([0, 1, 0, 0])])
        with pytest.raises(NeighborCodeError):
            neighbor(not_sd, Gf3Vector([1, 1, 1, 0]))

    def test_membership_clause(self, parent):
        word = parent.basis[0]
        with pytest.raises(NeighborMembershipError, match="neighbor would be"):
            neighbor(parent, word)

    def test_neighbor_meets_parent_in_hyperplane(self, parent, registry):
        x = registry.entry("x1").x
        moved = neighbor(parent, x)
        union = Code(36, list(parent.basis) + list(moved.basis))
        assert union.k == parent.k + 1

    def test_sweep_deterministic_and_bounded(self, parent, registry):
        a = list(neighbor_sweep(parent, budget=6, seed=2,
                                target="near-extremal", registry=registry,
                                parent_label="C2"))
        b = list(neighbor_sweep(parent, budget=6, seed=2,
                                target="near-extremal", registry=registry,
                                parent_label="C2"))
        assert len(a) <= 6
        assert [f.to_record() for f in a] == [f.to_record() for f in b]
        for f in a:
            assert f.parent == "C2"
            assert f.kind == "neighbor"
            assert f.d == 9


class TestNovelty:
    def test_known_beta(self, registry):
        finding = _fake_finding(36, d=9, alpha=48, beta=6)
        report = novelty_report([finding], 36, registry=registry)
        assert isinstance(report, NoveltyReport)
        (status,) = report.statuses
        assert status.beta == 6
        assert "Gamma36" in status.found_sets
        assert status.known
        assert report.new_betas() == []

    def test_new_beta(self, registry):
        report = novelty_report([_fake_finding(36, 9, 64, 8)], 36,
                                registry=registry)
        (status,) = report.statuses
        assert not status.known
        assert report.new_betas() == [8]
        assert not report.partial_knowledge

    def test_partial_knowledge_at_60(self, registry):
        report = novelty_report([_fake_finding(60, 15, 16, 2)], 60,
                                registry=registry)
        assert report.partial_knowledge

    def test_no_sets_at_length(self, registry):
        with pytest.raises(RegistryError):
            novelty_report([_fake_finding(12, 6, 264, 33)], 12,
                           registry=registry)

    def test_unclassified_alpha(self, registry):
        # alpha not divisible by 8 cannot be placed in any beta set
        report = novelty_report([_fake_finding(36, 9, 50, None)], 36,
                                registry=registry)
        assert report.unclassified == 1
        assert report.statuses == ()


def _fake_finding(length, d, alpha, beta):
    m = length // 6
    spec = CodeSpec(m, Gf3Vector.zeros(3 * m), Gf3Vector.zeros(3 * m),
                    Gf3Vector.zeros(3 * m))
    return Finding(kind="spec", n=length, spec=spec, d=d, alpha=alpha,
                   beta=beta, novelty=False, sets=())


class TestFindingSerialization:
    def test_round_trip(self, registry):
        plan = SearchPlan(block_size=2)
        found = list(run_search(plan, registry=registry))
        lines = [json.dumps(f.to_record()) for f in found]
        back = read_findings(lines)
        assert [f.to_record() for f in back] == [f.to_record() for f in found]

    def test_record_fields(self, registry):
        found = list(run_search(SearchPlan(block_size=2), registry=registry))
        rec = found[0].to_record()
        assert rec["kind"] == "spec"
        assert rec["n"] == 12
        assert isinstance(rec["r1"], list) and len(rec["r1"]) == 6
        assert rec["d"] >= 3
        assert rec["alpha"] > 0
