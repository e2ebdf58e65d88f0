"""Search planning, enumeration order, sharding, checkpoints, neighbors."""

import collections
import functools
import hashlib
import itertools
import json
import math
import os
import pickle
import random
import runpy
import subprocess
import sys
import tracemalloc
from concurrent.futures import Future
from pathlib import Path

import naive
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

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
    block_row_vectors,
    build_generator,
    is_self_dual,
    min_weight,
    ms_bound,
    near_extremal_weight,
    neighbor,
    neighbor_sweep,
    novelty_report,
    read_findings,
    run_search,
)
from nega3 import nega, search, weights
from nega3.nega import _at_least, _block_gram, _block_rows, _f_keys
from nega3.search import _block_pool, _DualSpace


def _unit_rows(plan, unit):
    """The first rows of one exhaustive unit as the search takes them:
    search._unit_rows when its r1 passes search._r1_screen, else none."""
    if search._r1_screen(plan, [unit])[0]:
        return search._unit_rows(plan, unit)
    return np.empty((0, 3, 3 * plan.block_size), np.int8)


def _specs(plan, unit):
    """The specs of one exhaustive unit, built from its first rows."""
    return [CodeSpec.from_entry_rows(rows.tolist()) for rows in _unit_rows(plan, unit)]


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

    def test_sampled_block_sizes_the_draw_cannot_reach(self):
        # a row of the draw expects 3^(n/2) / _batch_size(n) batches: 61 at
        # n = 22, 219 at n = 24, over _STALL / 10 = 100; odd n draw nothing
        assert [n for n in range(2, 40, 2) if not search._draw_reaches(n)] == list(range(24, 40, 2))
        assert 3**11 / search._batch_size(22) < search._STALL / 10 < 3**12 / search._batch_size(24)
        SearchPlan(block_size=22, mode="sampled", budget=1)
        SearchPlan(block_size=25, mode="sampled", budget=1)
        SearchPlan(block_size=24, budget=1)
        for n in (24, 30):
            with pytest.raises(ValueError, match=f"cannot draw at block size {n}"):
                SearchPlan(block_size=n, mode="sampled", budget=1)


class TestEnumerationOrder:
    def test_block_pool_m2(self):
        pool = _block_pool(2)
        assert pool == ((0, 0), (1, 1), (3, 1), (4, 2), (7, 2))

    def test_block_pool_m3(self):
        pool = _block_pool(3)
        assert len(pool) == 1 + (27 - 1) // 2
        fs = [f for f, _ in pool]
        assert fs == sorted(fs)
        for f, weight in pool[1:]:
            v = naive.vector_from_f(f, 3)
            assert naive.leads_with_one(v) and naive.vweight(v) == weight

    def test_dual_space_ascending(self):
        # orthogonal complement of one length-6 row, walked in f order
        space = _DualSpace(np.array([[1, 1, 0, 2, 0, 2]], np.int8))
        got = [naive.f_value(v) for v in _nonzero_members(space, 3 ** 6 - 1)]
        assert got == sorted(got)
        assert len(got) == 3 ** 5 - 1  # nonzero vectors only

    def test_dual_space_matches_brute_force(self):
        rows = [[1, 0, 1, 1, 0, 0], [0, 1, 2, 0, 1, 0]]
        space = _DualSpace(np.array(rows, np.int8))
        ours = _nonzero_members(space, 200)
        brute = []
        for entries in itertools.product(range(3), repeat=6):
            w = list(entries)
            if w == [0] * 6 or naive.f_value(w) > 200:
                continue
            if all(naive.vdot(w, r) == 0 for r in rows):
                brute.append(w)
        brute.sort(key=naive.f_value)
        assert ours == brute

    @pytest.mark.parametrize("limit", [0, 1, 700, 3**7, 3**8 - 1])
    def test_member_batches_are_the_dual_in_f_order(self, monkeypatch, limit):
        # batches of at most 100 members: an 81-member table of the low
        # basis rows plus each combination of the high ones in turn
        monkeypatch.setattr(search, "_CHUNK", 100)
        rows = [[1, 2, 0, 0, 1, 1, 0, 2], [0, 1, 1, 2, 0, 0, 1, 0]]
        space = _DualSpace(np.array(rows, np.int8))
        batches = list(space.members(limit))
        assert all(0 < len(b) <= 100 and b.dtype == np.int8 for b in batches)
        got = np.concatenate(batches).tolist()
        every = (naive.vector_from_f(f, 8) for f in range(limit + 1))
        want = [v for v in every if all(naive.vdot(v, r) == 0 for r in rows)]
        assert got == want
        assert [naive.combination(space.basis.tolist(), k, 8) for k in range(len(got))] == want
        assert space.count(limit) == len(want)

    def test_count_at_every_limit_of_every_span_at_n2(self):
        # the spans of the block rows of every width-6 r1, each dual once:
        # the closed form against the bisection, at all 729 limits
        duals = {}
        for f in range(1, 3**6):
            space = _DualSpace(_block_rows(search._digits(f, 6), 2) % 3)
            duals.setdefault(space.basis.tobytes(), space)
        assert len(duals) > 50
        for space in duals.values():
            basis = space.basis.tolist()
            fs = [naive.f_value(naive.combination(basis, k, 6)) for k in range(3 ** len(basis))]
            assert [space.count(limit) for limit in range(3**6)] == [
                naive.bisect_count(fs.__getitem__, len(fs), limit) for limit in range(3**6)]

    @pytest.mark.parametrize("m", [4, 6])
    def test_count_of_random_pairs(self, m):
        rng = random.Random(m)
        width = 3 * m
        for _ in range(150):
            row1 = search._digits(rng.randrange(3**width), width)
            space = _DualSpace(_block_rows(row1, m) % 3)
            basis = space.basis.tolist()
            limit = rng.randrange(3 ** rng.randrange(1, width + 1))
            assert space.count(limit) == _bisect_count(basis, width, limit)

    @pytest.mark.parametrize("width", [6, 12, 18])
    def test_count_above_the_top_lead_column(self, width):
        # spans holding the top unit vectors, so the dual's rows lead below
        # them: every member has f-value below 3^(top lead column + 1), and
        # any limit from there on counts them all
        rng = random.Random(width)
        for _ in range(20):
            top = rng.randrange(1, width // 2)
            span = [[rng.randrange(3) for _ in range(width)] for _ in range(rng.randrange(3))]
            span += [[int(i == c) for i in range(width)] for c in range(width - top, width)]
            space = _DualSpace(np.array(span, np.int8))
            assert space.lead[-1] < width - top
            basis = space.basis.tolist()
            edge = 3 ** (int(space.lead[-1]) + 1)
            for limit in (edge - 1, edge, rng.randrange(edge, 3**width), 3**width - 1):
                assert space.count(limit) == _bisect_count(basis, width, limit)
            assert space.count(edge) == 3 ** len(basis)


def _bisect_count(basis, width, limit):
    """The members of the span of basis rows, in counter order, with
    f-value at most limit, by the reference bisection."""
    return naive.bisect_count(
        lambda k: naive.f_value(naive.combination(basis, k, width)), 3 ** len(basis), limit)


def _nonzero_members(space, limit):
    """The members space.members(limit) lists after the zero member, as
    entry lists; each batch holds at most weights._CHUNK rows."""
    batches = list(space.members(limit))
    assert all(len(b) <= weights._CHUNK for b in batches)
    zero, *rows = np.concatenate(batches).tolist()
    assert not any(zero)
    return rows


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

    def test_reduced_space_misses_the_golay_code_at_n2(self, registry, n2_results):
        # exhaustive mode exhausts the paper's reduced space, not the whole
        # family: of the 24,192 self-dual M at n = 2, 4,608 reach the walk
        # form by block moves, and none of the 12,288 that generate the
        # extended Golay code (d = 6) is among them
        every = np.array(sorted(_self_dual_ms_n2()), np.int8)
        assert len(every) == 24_192
        reached = np.array([naive.in_walk_form(2, rows)
                            for rows in search._walk_form(every).tolist()])
        assert reached.sum() == 4_608
        # d by brute force: the codewords (u | u M) of the 728 nonzero u
        msgs = np.array(list(itertools.product(range(3), repeat=6))[1:], np.int16)
        ms = _block_rows(every, 2).reshape(-1, 6, 6).astype(np.int16)
        d = np.concatenate([((msgs != 0).sum(-1) + (msgs @ chunk % 3 != 0).sum(-1)).min(-1)
                            for chunk in np.array_split(ms, 8)])
        assert (d == 6).sum() == 12_288
        assert not (reached & (d == 6)).any()
        assert list(run_search(SearchPlan(block_size=2, target="extremal"),
                               registry=registry)) == []
        assert len(n2_results) == 6 and {f.alpha for f in n2_results} == {8}

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

    def test_one_settle_per_verified_spec(self, monkeypatch):
        # a unit settles each verified spec once, from its first rows alone:
        # the tile stacks it builds hold each spec's M, in order, at most
        # _STACK to a stack, on the orbit path of block width 4, and no Code
        # is checked self-dual
        tiles = []
        real = search._tile_stack

        def record(t, width):
            assert width == 4
            tiles.append(t)
            return real(t, width)

        monkeypatch.setattr(search, "_tile_stack", record)

        def refuse(code):
            raise AssertionError("a Code was checked self-dual")

        monkeypatch.setattr(Code, "is_self_dual", refuse)
        plan = SearchPlan(block_size=4, partition=(0, 64))
        total = 0
        for unit in search._units(plan):
            del tiles[:]
            (found,) = search._run_units(plan, [unit])
            specs = _specs(plan, unit)
            assert all(0 < len(t) <= search._STACK for t in tiles)
            got = [t.tolist() for t in itertools.chain.from_iterable(tiles)]
            assert got == [[row[12:] for row in naive.spec_generator_rows(
                4, *(r.entries() for r in spec.rows))] for spec in specs]
            assert {spec for spec, _ in found} <= set(specs)
            total += len(specs)
            if total > 200:
                break
        assert total > 200

    def test_a_code_that_is_not_self_dual_is_refused(self, monkeypatch):
        # the row identities are trusted only as far as the batched net
        # agrees: a genuine spec with one entry of r3 flipped, fed to
        # _run_units first or last among specs that fill several stacks,
        # is refused
        plan = SearchPlan(block_size=6)
        found = search._unit_rows(plan, 43191379)
        assert len(found) % search._STACK and len(found) > 2 * search._STACK
        for at in (0, len(found) - 1):
            fed = found.copy()
            fed[at, 2, 0] = (fed[at, 2, 0] + 1) % 3
            assert not is_self_dual(CodeSpec.from_entry_rows(fed[at].tolist()))
            monkeypatch.setattr(search, "_unit_rows", lambda *args: fed)
            with pytest.raises(InternalInconsistencyError, match="not self-dual"):
                list(search._run_units(plan, [43191379]))

    def test_one_code_spec_per_finding(self, registry, monkeypatch):
        # the length-24 shard of the benchmark builds a CodeSpec for each of
        # its 1,470 findings and for no spec that fails to verify, counted
        # at the __new__ of the CodeSpec that nega and search name, which
        # the dataclass's own construction and the search's batch of
        # verified specs (nega._specs) both call
        built = []

        class Counted(CodeSpec):
            def __new__(cls, *args, **kwargs):
                built.append(cls)
                return super().__new__(cls)

        monkeypatch.setattr(nega, "CodeSpec", Counted)
        monkeypatch.setattr(search, "CodeSpec", Counted)
        plan = SearchPlan(block_size=4, partition=(0, 64))
        assert len(list(run_search(plan, registry=registry))) == len(built) == 1470

    @pytest.mark.parametrize("target, lines, digest", [
        ("near-extremal", 14,
         "a4e32d745acbb67a069792d75f751dabfa7afa5899e0b7bca4b1870ef11e9a1d"),
        ("extremal", 2,
         "7825aab79b1160616c7f5352f67aaeeeaab73eaaf26ef3ac93c7ade4db65f6c0"),
    ])
    def test_length12_census_stdout_pinned(self, capsys, monkeypatch, target, lines, digest):
        # the whole block-size-2 space, each finding with its distribution
        script = Path(__file__).resolve().parents[1] / "scripts" / "length12_census.py"
        monkeypatch.setattr(sys, "argv", [str(script), "--target", target])
        assert runpy.run_path(str(script), run_name="census")["main"]() == 0
        out = capsys.readouterr().out
        assert len(out.splitlines()) == lines
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_odd_block_size_yields_nothing(self, registry, caplog):
        plan = SearchPlan(block_size=1)
        with caplog.at_level("WARNING", logger="nega3.search"):
            assert list(run_search(plan, registry=registry)) == []
        assert "no self-dual code" in caplog.text


@functools.cache
def _exhaustive_units(m):
    return tuple(search._units(SearchPlan(block_size=m)))


def _assert_closed_form(found):
    """The tile stack the search settles for int8 first rows (specs, 3, 3m)
    holds what the greedy row reduction (naive.greedy_sets) gives each
    spec's built Code: the planes of both information sets, whose pivots are
    the two halves of the columns, with the orbit width build_generator
    records."""
    assert found.dtype == np.int8 and found.shape[1] == 3
    m = found.shape[2] // 3
    stack = weights._tile_stack(search._tiles(found), weights._orbit_shape(6 * m, 3 * m))
    assert stack.lo.shape == stack.hi.shape == (2, len(found), 3 * m, 1)
    assert stack.lo.dtype == stack.hi.dtype == np.uint64
    halves = [(list(range(3 * m)), 0), (list(range(3 * m, 6 * m)), 0)]
    for c, rows in enumerate(found):
        code = build_generator(CodeSpec.from_entry_rows(rows.tolist()))
        assert stack.width == code._cache["orbit_width"]
        sets = naive.greedy_sets([r.entries() for r in code.basis])
        assert [(pivots, deficit) for _, pivots, deficit in sets] == halves
        for i, (basis, _, _) in enumerate(sets):
            assert stack.lo[i, c, :, 0].tolist() == [naive.plane(r, 1) for r in basis]
            assert stack.hi[i, c, :, 0].tolist() == [naive.plane(r, 2) for r in basis]


class TestTileStacks:
    """The search settles stacks read off the first rows in closed form
    (search._tiles, weights._tile_stack), never building a Code."""

    def test_every_length12_spec(self):
        plan = SearchPlan(block_size=2)
        found = np.concatenate([_unit_rows(plan, u) for u in search._units(plan)])
        assert len(found) == 6
        _assert_closed_form(found)

    def test_first_units_of_the_length24_shard(self):
        # the units up to the sixth that has specs: 106 specs
        plan = SearchPlan(block_size=4, partition=(0, 64))
        found = np.empty((0, 3, 12), np.int8)
        for unit in search._units(plan):
            found = np.concatenate((found, _unit_rows(plan, unit)))
            if len(found) > 100:
                break
        assert len(found) == 106
        for s in range(0, len(found), search._STACK):
            _assert_closed_form(found[s : s + search._STACK])

    @given(st.sampled_from([2, 4, 6]), st.integers(0, 2**32 - 1))
    def test_sampled_specs(self, m, seed):
        plan = SearchPlan(block_size=m, mode="sampled", seed=seed, budget=3)
        rows = search._trial_rows(plan, range(3))
        # the group's rows own their entries, so they do not keep the
        # group's batches of draws alive
        assert rows.shape == (3, 3, 3 * m) and rows.base is None
        assert all(is_self_dual(CodeSpec.from_entry_rows(r.tolist())) for r in rows)
        _assert_closed_form(rows)

    def test_many_stacks_match_each_spec_settled_alone(self):
        # a length-36 unit's 734 specs, in 12 stacks, the last one short
        plan = SearchPlan(block_size=6)
        specs = _specs(plan, 43191379)
        assert len(specs) == 734
        alone = [weights._settle(weights._code_stack(build_generator(s)), 9)[0] for s in specs]
        (got,) = search._run_units(plan, [43191379])
        assert got == [(s, a) for s, a in zip(specs, alone) if a is not None]
        assert len(got) > 100


_SHARD_DIGEST = "9c7b19f02402ba3da4fa2853c9481b6ffd64d420004762a1312a415e619751e9"


def _lines(findings):
    return [json.dumps(f.to_record()) for f in findings]


class TestStacksAcrossUnits:
    """An inline run settles its specs _STACK at a time, in stacks that run
    on from one unit to the next."""

    @pytest.mark.parametrize("stack", [1, 5, 64])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_shard_stream_for_any_stack(self, tmp_path, registry, monkeypatch, workers, stack):
        # shard 0/64 at n = 4 gives its pinned stream; inline, every tile
        # stack but the last holds _STACK specs; and a checkpointed run
        # stopped after 30 of its 64 units resumes to the same stream
        monkeypatch.setattr(search, "_STACK", stack)
        sizes = []
        real = search._tile_stack
        monkeypatch.setattr(search, "_tile_stack",
                            lambda tiles, width: sizes.append(len(tiles)) or real(tiles, width))
        plan = SearchPlan(block_size=4, partition=(0, 64))
        lines = _lines(run_search(plan, registry=registry, workers=workers))
        assert hashlib.sha256("".join(line + "\n" for line in lines).encode()).hexdigest() == (
            _SHARD_DIGEST)
        if workers == 1:
            assert sum(sizes) == 1547 and len(sizes) == -(-1547 // stack)
            assert set(sizes[:-1]) == {stack} and 0 < sizes[-1] <= stack
        path = tmp_path / "ck.json"
        with monkeypatch.context() as m:
            m.setattr(search, "_run_units", _runs_then_stops(30))
            m.setattr(search, "ProcessPoolExecutor", _RecordingPool([], []))
            with pytest.raises(_Stopped):
                list(run_search(plan, registry=registry, checkpoint=path, workers=workers))
        assert len(_log_lines(path)) == 1 + 30
        assert _lines(run_search(plan, registry=registry, checkpoint=path,
                                 workers=workers)) == lines

    @pytest.mark.parametrize("stack", [5, 64])
    def test_units_without_specs_merge_in_order(self, monkeypatch, stack):
        # the shard's units in one stream give what each gives alone, where
        # units with no spec sit between units whose specs share a stack
        monkeypatch.setattr(search, "_STACK", stack)
        plan = SearchPlan(block_size=4, partition=(0, 64))
        units = list(search._units(plan))
        counts = [len(_unit_rows(plan, unit)) for unit in units]
        before = list(itertools.accumulate(counts, initial=0))
        assert any(not count and before[i] % stack and before[i] < before[-1]
                   for i, count in enumerate(counts))
        alone = [results for unit in units for results in search._run_units(plan, [unit])]
        assert list(search._run_units(plan, units)) == alone
        assert sum(map(len, alone)) == 1470

    @pytest.mark.long
    def test_late_length36_units_in_one_stream(self):
        # the late units' specs run on across stacks of 64 between units
        plan = SearchPlan(block_size=6)
        units = [43191379, 366142422, 370927567, 382102432]
        assert all(len(_unit_rows(plan, unit)) % search._STACK for unit in units)
        stream = search._run_units(plan, units)
        for unit, results in zip(units, stream, strict=True):  # one unit's results at a time
            assert results == next(search._run_units(plan, [unit])), unit

    @pytest.mark.long
    def test_stream_memory_is_one_unit_and_one_stack(self):
        # the late unit 382102432 (76,154 specs) after 43191379, whose last
        # 30 specs wait for its first stack, and before its successor in
        # unit order: the stream holds the late unit's rows and results,
        # the open stack and the results of the units with specs in it
        plan = SearchPlan(block_size=6)

        def peak(units):
            tracemalloc.start()
            try:
                for results in search._run_units(plan, units):
                    del results
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        alone = peak([382102432])
        stack = search._STACK * (3 * 18 + 18 * 18)  # a stack's first rows and its M
        assert peak([43191379, 382102432, 383697481]) <= alone + stack


def _walk(m, unit):
    return _unit_rows(SearchPlan(block_size=m), unit).tolist()


def _reference_walk(m, unit):
    d = SearchPlan(block_size=m).target_min_weight
    r1 = naive.vector_from_f(unit, 3 * m)
    return list(naive.exhaustive_unit(m, r1, d))


def _pairwise_rows(plan, unit):
    """The first rows of an exhaustive unit by the per-r2 pairwise filter
    that the closed form replaced: the admissible r2 of the dual of r1's
    block rows in ascending f, as search._unit_rows walks them, and the r3
    of the i-th the first i + 1 whose cross identity with it,
    _block_gram(r3, r2, m) = 0, holds."""
    m, d = plan.block_size, plan.target_min_weight
    row1 = search._digits(unit, 3 * m)
    if not (search._admissible(row1[None], d, m)[0] and search._d_prune_survives(row1, m, d)):
        return []
    rows = np.concatenate([vals[search._admissible(vals, d, m)] for vals
                           in _DualSpace(_block_rows(row1, m)).members(unit)])
    return [[row1.tolist(), rows[i].tolist(), rows[j].tolist()] for i in range(len(rows))
            for j in np.flatnonzero(~_block_gram(rows[: i + 1], rows[i], m).any(axis=1))]


def _row_rule(d, m):
    """The row predicate on plain lists: a leading 1, the row-weight rule
    and the diagonal Gram identity at block size m."""
    def accept(v):
        w = naive.vweight(v)
        return (any(v) and naive.leads_with_one(v) and w % 3 == 2 and w >= d - 1
                and naive.row_pair_gram(m, v, v) == [2] + [0] * (m - 1))
    return accept


class TestExhaustiveWalk:
    """The batched walk of an exhaustive unit against naive.exhaustive_unit,
    the per-r2 dual-space odometer walk it replaces."""

    @pytest.mark.parametrize("m", [2, 4])
    @given(data=st.data())
    def test_units_match_reference_walk(self, m, data):
        unit = data.draw(st.sampled_from(_exhaustive_units(m)))
        assert _walk(m, unit) == _reference_walk(m, unit)

    @pytest.mark.parametrize("unit", [
        43191379,  # D1 holds 59,247 members up to f(r1): one batch and a bit
        pytest.param(366142422, marks=pytest.mark.long),
        pytest.param(370927567, marks=pytest.mark.long),
        pytest.param(382102432, marks=pytest.mark.long),  # 524,146 members, 8,602 r2
    ])
    def test_length36_units_match_reference_walk(self, unit):
        assert _walk(6, unit) == _reference_walk(6, unit)

    def test_length24_shard_matches_pairwise_filter(self):
        # every unit of the benchmark's shard: the r3 of each r2 listed in
        # closed form, in the filter's order
        plan = SearchPlan(block_size=4, partition=(0, 64))
        total = 0
        for unit in search._units(plan):
            found = _walk(4, unit)
            assert found == _pairwise_rows(plan, unit), unit
            total += len(found)
        assert total == 1547  # specs, 1,470 of them findings

    @pytest.mark.parametrize("unit, specs", [
        (43191379, 734),
        pytest.param(366142422, 69823, marks=pytest.mark.long),
        pytest.param(370927567, 70377, marks=pytest.mark.long),
        pytest.param(382102432, 76154, marks=pytest.mark.long),
    ])
    def test_length36_units_match_pairwise_filter(self, unit, specs):
        found = _walk(6, unit)
        assert len(found) == specs
        assert found == _pairwise_rows(SearchPlan(block_size=6), unit)

    @pytest.mark.parametrize("step", [1, 7])
    def test_slices_of_r2_match_pairwise_filter(self, monkeypatch, step):
        # the unit's 910 admissible r2 go in slices of _CHUNK // (4 |V_6| / 2)
        # = step, 18 of the 36 elements of V_6 leading with 1, where the
        # default size takes one
        monkeypatch.setattr(search, "_CHUNK", 4 * 18 * step)
        plan = SearchPlan(block_size=6)
        assert _walk(6, 43191379) == _pairwise_rows(plan, 43191379)

    def test_one_dual_space_per_unit(self, monkeypatch):
        built = []

        class Counted(_DualSpace):
            def __init__(self, span):
                built.append(span.shape[1])
                super().__init__(span)

        monkeypatch.setattr(search, "_DualSpace", Counted)
        plan = SearchPlan(block_size=4, partition=(0, 256))
        for unit in search._units(plan):
            del built[:]
            specs = _unit_rows(plan, unit)
            assert built == [12] or (not built and not len(specs))

    def test_digits_past_int64(self):
        rng = random.Random(3)
        for value in (0, 1, 2**63 - 1, 2**63, 2**64 + 1, 3**42 - 1, rng.randrange(3**42)):
            assert search._digits(value, 42).tolist() == naive.vector_from_f(value, 42)

    @pytest.mark.parametrize("delta", [-2, -1, 0, 1, 2])
    def test_count_past_int64(self, delta):
        # width 42: f-values pass 2^63 from 3^40 on, and the count reads
        # them digit by digit, also against a limit that shares a member's
        # high digits
        setup = random.Random(14)
        r = Gf3Vector(setup.randrange(3) for _ in range(42))
        span = [u.entries() for u in block_row_vectors(14, r)]
        space = _DualSpace(np.array(span, np.int8))
        basis = space.basis.tolist()
        near = naive.f_value(naive.combination(basis, setup.randrange(3 ** len(basis)), 42))
        for limit in (2**63 + delta, setup.randrange(2**62, 2**64), near + delta):
            count = space.count(limit)
            below, above = (naive.combination(basis, k, 42) for k in (count - 1, count))
            assert naive.f_value(below) <= limit < naive.f_value(above)
            assert all(naive.vdot(v, u) == 0 for v in (below, above) for u in span)

    @pytest.mark.parametrize("m", [11, 12])
    def test_batched_grams_past_int8(self, m):
        # dense rows of 2s: 3m products of 4 pass 127 from m = 11 on; batch
        # with batch, batch with one row and row with row
        rng = random.Random(m)
        rows = [[2] * 3 * m, [2] * (3 * m - 1) + [1], [1] * 3 * m]
        rows += [[rng.choice((0, 1, 2, 2, 2)) for _ in range(3 * m)] for _ in range(40)]
        a = np.array(rows, np.int8)
        assert _block_gram(a, a, m).tolist() == [naive.row_pair_gram(m, v, v) for v in rows]
        for i in (0, 1, 7):
            want = [naive.row_pair_gram(m, v, rows[i]) for v in rows]
            assert _block_gram(a, a[i], m).tolist() == want
            assert _block_gram(a[i], a[i], m).tolist() == want[i]

    def test_walk_memory_is_bounded(self):
        # a late length-36 unit: D1 holds 524,146 members up to f(r1), which
        # as one unbatched table of int64 digits would take about 51 MB; the
        # batched walk over them all and the 76,154 specs' first rows fit
        tracemalloc.start()
        try:
            rows = search._unit_rows(SearchPlan(block_size=6), 382102432)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rows.shape == (76154, 3, 18)
        assert peak < 8 * 2**20

    @pytest.mark.parametrize("width", [3, 18, 39, 42, 60])
    def test_admissible_is_the_row_rule(self, width):
        rng = random.Random(width)
        vals = np.array([[rng.choice((0, 0, 1, 2)) for _ in range(width)] for _ in range(400)]
                        + [[0] * width], np.int8)
        d, m = width // 2, width // 3
        accept = _row_rule(d, m)
        assert search._admissible(vals, d, m).tolist() == [accept(v) for v in vals.tolist()]

    @pytest.mark.parametrize("m, target, first", [
        (2, "near-extremal", None), (2, "extremal", None),
        (4, "near-extremal", None), (4, "extremal", None), (6, "near-extremal", 4000),
    ])
    def test_d_prune_is_the_subcode_minimum(self, m, target, first):
        # the r1 the walk prunes, those that pass the row rule, of every
        # unit at n = 2 and 4 and of the first 4,000 at n = 6; at n = 4
        # (extremal) and n = 6 some fail the prune, the rest pass
        plan = SearchPlan(block_size=m, target=target)
        d = plan.target_min_weight
        rows = [search._digits(u, 3 * m) for u in itertools.islice(search._units(plan), first)]
        rows = [r for r in rows if search._admissible(r[None], d, m)[0]]
        assert rows
        for row1 in rows:
            r1 = row1.tolist()
            subcode = [[int(j == i) for j in range(3 * m)] + u
                       for i, u in enumerate(naive.block_rows(m, r1))]
            assert search._d_prune_survives(row1, m, d) == (naive.min_weight(subcode) >= d), r1

    def test_d_prune_memory_is_bounded(self):
        # 3^12 words over 48 columns: 25.5 MB as one unbatched int8 table;
        # the batched walk peaked at 9.1 MB
        row1 = search._digits(random.Random(12).randrange(3**36), 36)
        tracemalloc.start()
        try:
            assert search._d_prune_survives(row1, 12, 1)  # no word is lighter: all are walked
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 12 * 2**20


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
        # a finding in the walk's row form is in the exhaustive stream, and
        # no block move takes any other finding into that form
        plan = SearchPlan(block_size=2, mode="sampled", seed=5, budget=200)
        found = [[r.entries() for r in f.spec.rows] for f in run_search(plan, registry=registry)]
        full = {_as_key(f) for f in run_search(SearchPlan(block_size=2), registry=registry)}
        walk = [rows for rows in found if naive.in_walk_form(2, rows)]
        assert {tuple(map(tuple, rows)) for rows in walk} <= full
        assert all(naive.walk_form(2, rows) is None for rows in found if rows not in walk)
        assert 0 < len(walk) < len(found)

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

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("m, seed, budget, partition", [
        (2, 7, 150, (0, 1)),
        (4, 3, 200, (1, 2)),
        (6, 0, 150, (0, 1)),
    ], ids=["n2", "n4-half", "n6"])
    def test_grouped_trials_match_per_trial_reference(self, registry, workers, m, seed,
                                                      budget, partition):
        # the trials of a run are settled _STACK at a time, in one stacked
        # scan, with a last group shorter than the rest
        plan = SearchPlan(block_size=m, mode="sampled", seed=seed, budget=budget,
                          partition=partition)
        assert len(list(search._units(plan))) % search._STACK
        got = _records(run_search(plan, registry=registry, workers=workers))
        assert got == _records(_per_trial_reference(plan, registry))
        assert got


    def test_survey36_stdout_pinned(self, capsys, monkeypatch):
        # the script and seed the survey-36 benchmark workload runs, whose
        # own check pins no digest: the sampled survey, then the sweep
        _check_survey36_stdout(capsys, monkeypatch)

    def test_survey36_makes_no_plane_addition(self, capsys, monkeypatch):
        # at length 36 the covering scan stops by level 4, where the walk
        # reads every sum it needs from its pair table (weights._pair_sums)
        def refuse(*args):
            raise AssertionError("a bit-sliced addition in the covering walk")

        monkeypatch.setattr(weights, "_add_into", refuse)
        _check_survey36_stdout(capsys, monkeypatch)


def _check_survey36_stdout(capsys, monkeypatch):
    """scripts/survey36.py at the survey-36 workload's seed and sizes gives
    its pinned stdout."""
    script = Path(__file__).resolve().parents[1] / "scripts" / "survey36.py"
    monkeypatch.setattr(sys, "argv", [str(script), "--seed", "0", "--budget", "300",
                                      "--sweep", "200", "--base", "C2"])
    assert runpy.run_path(str(script), run_name="survey36")["main"]() == 0
    out = capsys.readouterr().out
    assert len(out.splitlines()) == 408
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "fe05d80464d25455a0192daf9ab5158a5984869d193c8bd71eaf37a02f8d0c5d")


def _per_trial_reference(plan, registry):
    """The sampled stream with every trial's spec settled on its own, in a
    stack of one."""
    d = plan.target_min_weight
    found = {}
    for trial in search._units(plan):
        for rows in search._trial_rows(plan, [trial]):
            spec = CodeSpec.from_entry_rows(rows.tolist())
            alpha = weights._settle(weights._code_stack(build_generator(spec)), d)[0]
            if alpha is not None:
                found[spec] = search.make_finding(registry, "spec", plan.length, d, alpha,
                                                  spec=spec)
    return sorted(found.values(), key=Finding.sort_key)


class _CountingRandom(random.Random):
    """A Random that records the bit counts asked of getrandbits."""

    def __init__(self, seed):
        self.asked = []
        super().__init__(seed)

    def getrandbits(self, k):
        self.asked.append(k)
        return super().getrandbits(k)


def _scalar_trits(rng, count):
    """search._trits as a loop over rng's bytes."""
    out = []
    while len(out) < count:
        out += [b % 3 for b in rng.randbytes(count - len(out) + count // 64 + 8) if b < 255]
    return out[:count]


def _scalar_ring_row(rng, m, taken):
    """search._ring_row as a loop over its batches' rows, projected and
    normed one at a time with naive's ring arithmetic."""
    size = min(2 * 3 ** (m // 2), 2**22 // (3 * m * m))
    while True:
        trits = _scalar_trits(rng, size * 3 * m)
        for k in range(size):
            v = trits[3 * m * k:3 * m * (k + 1)]
            for r in taken:
                c = naive.row_pair_gram(m, v, r)
                v = naive.vadd(v, [x for t in range(3) for x in naive.nega_mul(c, r[t * m:(t + 1) * m])])
            if naive.vweight(v) % 3 == 2 and naive.row_pair_gram(m, v, v) == [2] + [0] * (m - 1):
                return v


class _ByteStream(random.Random):
    """A Random whose randbytes serve a fixed byte string, recording the
    byte counts asked."""

    def __init__(self, data):
        super().__init__(0)
        self.data, self.asked = data, []

    def randbytes(self, k):
        self.asked.append(k)
        chunk, self.data = self.data[:k], self.data[k:]
        return chunk


class TestSampleDraws:
    """The batch draws of a sampled group, search._trits and
    search._ring_rows, against the scalar loops they replace, trial by
    trial."""

    @pytest.mark.parametrize("m", [*range(1, 11), 14])
    def test_batch_replays_scalar_draws(self, m):
        scalar, batch = random.Random(m), random.Random(m)
        ref = _scalar_trits(scalar, 120 * m)
        values = search._trits(batch, 120 * m)
        assert values.dtype == np.int8 and values.tolist() == ref
        assert batch.getstate() == scalar.getstate()
        # the rows of a draw in turn, each the first of its batches to pass;
        # at odd m no third row exists
        taken = np.empty((1, 0, 3 * m), np.int8)
        for _ in range(3 if m % 2 == 0 else 1):
            want = _scalar_ring_row(scalar, m, [r.tolist() for r in taken[0]])
            row = search._ring_rows([batch], taken)
            assert row.dtype == np.int8 and row.tolist() == [want]
            assert batch.getstate() == scalar.getstate()
            taken = np.concatenate((taken, row[:, None]), axis=1)

    @pytest.mark.parametrize("m, count", [(2, 24), (4, 24), (6, 16)])
    def test_group_replays_each_trial(self, m, count):
        # trials of one group that take different numbers of batches for a
        # row, each replayed alone with its generator's end state
        batches = [_CountingRandom(f"group:{m}:{t}") for t in range(count)]
        drawn = search._ring_draws(batches, m)
        assert drawn.dtype == np.int8 and drawn.shape == (count, 3, 3 * m)
        for rows, batch, t in zip(drawn, batches, range(count)):
            scalar, want = random.Random(f"group:{m}:{t}"), []
            for _ in range(3):
                want.append(_scalar_ring_row(scalar, m, want))
            assert rows.tolist() == want
            assert batch.getstate() == scalar.getstate()
        assert len({len(b.asked) for b in batches}) > 1

    def test_rows_do_not_depend_on_the_group(self):
        # a group of 64, groups of 7, groups of 1, a partition's units and none;
        # at m = 14 a group of 7 or 8 holds more than a slice's 2^20 entries
        assert 7 * search._batch_size(14) * 42 > 2**20
        for m in (6, 14):
            plan = SearchPlan(m, mode="sampled", seed=3, budget=64)
            trials = range(64 if m == 6 else 8)
            whole = search._trial_rows(plan, trials)
            for size in (7, 1):
                groups = [trials[s:s + size] for s in range(0, len(trials), size)]
                got = np.concatenate([search._trial_rows(plan, g) for g in groups])
                assert np.array_equal(got, whole)
            assert np.array_equal(search._trial_rows(plan, trials[1::3]), whole[1::3])
            assert search._trial_rows(plan, []).shape == (0, 3, 3 * m)

    def test_short_peek_is_extended(self):
        # the first read asks count // 64 + 8 bytes over count, so a stream
        # with more 255s than that in it needs a second
        data = bytearray(random.Random(5).randbytes(2000))
        for i in random.Random(6).sample(range(658), 30):
            data[i] = 255
        rng = _ByteStream(bytes(data))
        values = search._trits(rng, 640)
        got = sum(b < 255 for b in data[:658])
        assert rng.asked == [658, 640 - got + 18]
        assert values.dtype == np.int8
        assert values.tolist() == [b % 3 for b in data if b < 255][:640]


class TestMersenneTwisterWords:
    """The two CPython facts that search._randrange3, which peeks the
    sweep's seeds, rests on, and the helper against the scalar draws."""

    def test_getrandbits_reads_successive_words_little_endian(self):
        wide, narrow = random.Random(2), random.Random(2)
        x = wide.getrandbits(32 * 9)
        words = [narrow.getrandbits(32) for _ in range(9)]
        assert np.frombuffer(x.to_bytes(36, "little"), "<u4").tolist() == words
        assert wide.getstate() == narrow.getstate()

    def test_randrange3_is_two_top_bits_redrawn_on_3(self):
        drawn, bits, words = random.Random(3), random.Random(3), random.Random(3)
        for _ in range(2000):
            b = bits.getrandbits(2)
            while b == 3:
                b = bits.getrandbits(2)
            w = words.getrandbits(32) >> 30
            while w == 3:
                w = words.getrandbits(32) >> 30
            assert drawn.randrange(3) == b == w
        assert drawn.getstate() == bits.getstate() == words.getstate()

    @pytest.mark.parametrize("m", [*range(1, 11), 14])
    def test_batch_replays_scalar_draws(self, m):
        # the values of a loop of randrange(3) calls, and after each the
        # words read so far
        count = 120 * m
        scalar = random.Random(m)
        ref, states = [], []
        for _ in range(count):
            ref.append(scalar.randrange(3))
            states.append(scalar.getstate())
        batch = random.Random(m)
        values, ends = search._randrange3(batch, count)
        assert batch.getstate() == random.Random(m).getstate()  # only peeked
        assert values.dtype == np.uint8 and values.tolist() == ref
        words, read = random.Random(m), 0
        for end, state in zip(ends.tolist(), states):
            words.getrandbits(32 * (end - read))
            read = end
            assert words.getstate() == state

    def test_no_values_read_no_words(self):
        rng = _CountingRandom(1)
        values, ends = search._randrange3(rng, 0)
        assert values.shape == ends.shape == (0,)
        assert rng.getstate() == random.Random(1).getstate()
        assert not any(rng.asked)

    def test_short_peek_is_extended(self):
        # the first peek reads about the expected number of words, so a
        # stream with more 3s than that needs a second
        for seed in range(100):
            rng = _CountingRandom(seed)
            values, ends = search._randrange3(rng, 3000)
            if len(rng.asked) > 1:
                break
        else:
            pytest.fail("no seed needed a second peek")
        scalar = random.Random(seed)
        assert values.tolist() == [scalar.randrange(3) for _ in range(3000)]
        rng = random.Random(seed)
        rng.getrandbits(32 * int(ends[-1]))
        assert rng.getstate() == scalar.getstate()


def _chi_square_z(counts, cells):
    """Pearson's chi-square of counts over that many equally likely cells,
    the cells not in counts counting 0, as a z-score of its null law."""
    total = sum(counts.values())
    expected = total / cells
    x2 = sum((c - expected) ** 2 for c in counts.values()) / expected
    x2 += (cells - len(counts)) * expected
    return (x2 - (cells - 1)) / math.sqrt(2 * (cells - 1))


def _self_dual_ms_n2():
    """Every self-dual M at block size 2, as first-row triples, by brute
    force over the 729 rows of width 6."""
    rows = np.array(list(itertools.product(range(3), repeat=6)), np.int8)
    gram = _block_gram(rows[:, None], rows[None], 2)  # (729, 729, 2): <row a, row b>
    two = (gram[..., 0] == 2) & (gram[..., 1] == 0)
    orth = ~gram.any(axis=2)
    out = set()
    for a in np.flatnonzero(two.diagonal()):
        for b in np.flatnonzero(two.diagonal() & orth[a]):
            for c in np.flatnonzero(two.diagonal() & orth[a] & orth[b]):
                out.add(tuple(tuple(rows[i].tolist()) for i in (a, b, c)))
    return out


def _moved(m, rows, rng):
    """First rows under one random block move of each kind."""
    rows = naive.column_move(m, rows, units=tuple(rng.choice((1, 2)) for _ in range(3)))
    rows = naive.column_move(m, rows, perm=tuple(rng.sample(range(3), 3)))
    rows = naive.row_move(rows, units=tuple(rng.choice((1, 2)) for _ in range(3)))
    return naive.row_move(rows, perm=tuple(rng.sample(range(3), 3)))


class TestRingDraw:
    """A sampled trial's draw, uniform over the self-dual M, and its walk
    form against naive's brute force over the 2,304 block moves."""

    @pytest.mark.parametrize("m", [2, 4, 6, 8, 10])
    def test_every_draw_is_self_dual(self, m):
        rng = random.Random(f"self-dual:{m}")
        for _ in range(20 if m <= 6 else 4):
            rows = search._ring_draws([rng], m)[0]
            assert rows.shape == (3, 3 * m)
            assert naive.spec_is_self_dual(m, *rows.tolist())

    def test_first_rows_uniform_at_n2(self):
        # 5,040 draws of r1: 20 expected on each of the 252 rows of norm 2
        rng, none = random.Random("r1"), np.empty((1, 0, 6), np.int8)
        counts = collections.Counter(tuple(search._ring_rows([rng], none)[0].tolist())
                                     for _ in range(5040))
        assert all(naive.row_pair_gram(2, list(r), list(r)) == [2, 0] for r in counts)
        assert len(counts) == 252
        assert abs(_chi_square_z(counts, 252)) < 4

    @pytest.mark.long
    def test_matrices_uniform_at_n2(self):
        # 60,000 draws over the 24,192 self-dual M: about 2.5 on each
        every = _self_dual_ms_n2()
        assert len(every) == 24_192
        rng = random.Random("M")
        counts = collections.Counter(tuple(map(tuple, search._ring_draws([rng], 2)[0].tolist()))
                                     for _ in range(60_000))
        assert set(counts) <= every
        assert abs(_chi_square_z(counts, len(every))) < 4

    @pytest.mark.parametrize("m, count", [(2, 40), (4, 30), (6, 8), (14, 12)])
    def test_walk_form_is_the_least_form_a_move_reaches(self, m, count):
        # at m = 14 every f-value of a form passes 2^63
        drawn = search._ring_draws([random.Random(f"form:{m}:{t}") for t in range(count)], m)
        forms = search._walk_form(drawn)
        assert forms.dtype == np.int8 and forms.shape == drawn.shape
        reached = 0
        for rows, got in zip(drawn.tolist(), forms.tolist()):
            want = naive.walk_form(m, rows)
            assert got == (rows if want is None else want)
            reached += want is not None
            assert want is None or m < 14 or naive.f_value(want[2]) >= 2**63
        assert 0 < reached < count

    @pytest.mark.parametrize("width", [3, 18, 19, 20, 39, 40, 60])
    def test_f_keys_compare_as_f(self, width):
        # past 19 digits a row takes several chunks; half the rows share the
        # high digits of one, to test the comparison near it
        rng = random.Random(width)
        top = [rng.randrange(3) for _ in range(width)]
        vals = ([[rng.randrange(3) for _ in range(width)] for _ in range(100)]
                + [top[:i] + [rng.randrange(3)] + top[i + 1:]
                   for i in (rng.randrange(width) for _ in range(100))] + [top, [0] * width])
        keys = _f_keys(np.array(vals, np.int8))
        assert keys.shape == (len(vals), -(-width // 19))
        fs = [naive.f_value(v) for v in vals]
        assert [fs[i] for i in np.lexsort(keys.T)] == sorted(fs)
        assert _at_least(keys[:, None], keys[None]).tolist() == [
            [x >= y for y in fs] for x in fs]

    def test_walk_form_of_any_nonzero_rows(self):
        # on self-dual draws r1 and r2 of a form pin r3; on other rows two
        # forms can share them, and r3 breaks the tie
        ties = 0
        for m, count in ((1, 80), (2, 60)):
            rng = random.Random(f"rows:{m}")
            cases = [[[rng.choice((0, 1, 2)) for _ in range(3 * m)] for _ in range(3)]
                     for _ in range(count)]
            cases = [rows for rows in cases if all(any(r) for r in rows)]
            for rows, form in zip(cases, search._walk_form(np.array(cases, np.int8)).tolist()):
                forms = [img for img in naive.block_moves(m, rows) if naive.in_walk_form(m, img)]
                assert form == min(forms, key=lambda img: [naive.f_value(r) for r in img],
                                   default=rows)
                heads = {tuple(naive.f_value(r) for r in img[:2]) for img in forms}
                ties += len(heads) < len({tuple(map(tuple, img)) for img in forms})
        assert ties

    def test_moved_draws_share_their_form(self):
        rng = random.Random("moves")
        reached = 0
        drawn = search._ring_draws([random.Random(f"share:{t}") for t in range(60)], 4)
        for rows, form in zip(drawn, search._walk_form(drawn)):
            if (form != rows).any() or naive.in_walk_form(4, rows.tolist()):
                reached += 1
                moved = np.array([_moved(4, rows.tolist(), rng)], np.int8)
                assert np.array_equal(search._walk_form(moved)[0], form)
        assert reached > 5

    @pytest.mark.parametrize("m", [1, 3, 5])
    def test_odd_block_size_draws_nothing(self, m):
        # no self-dual M exists there, so a draw would never end
        plan = SearchPlan(block_size=m, mode="sampled", seed=1, budget=5)
        assert list(run_search(plan)) == []

    def test_stalled_draw_raises(self, monkeypatch):
        # all-zero rows have norm 0: every batch comes back empty
        calls = []
        monkeypatch.setattr(search, "_trits",
                            lambda rng, count: calls.append(1) or np.zeros(count, np.int8))
        with pytest.raises(InternalInconsistencyError, match="no row of norm 2"):
            search._ring_draws([random.Random(0)], 2)
        assert len(calls) == search._STALL

    def test_sampled_run_imports_no_numpy_random(self):
        # its import alone adds about 2 MB of resident memory
        code = ("import sys; from nega3.cli import main; "
                "rc = main(['search', '--n', '4', '--mode', 'sampled', '--seed', '1', "
                "'--budget', '70', '--workers', '1']); "
                "print(rc, 'numpy.random' in sys.modules, file=sys.stderr)")
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]))
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=env, timeout=120)
        assert done.stderr.splitlines()[-1] == "0 False"
        assert done.stdout


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

    @pytest.mark.parametrize("workers", [1, 2])
    def test_units_walked_once_per_run(self, tmp_path, registry, monkeypatch, workers):
        # the pending units and the merge share one walk of the r1 triples,
        # one scalar row-weight test each, in a fresh run and a resumed one
        path = tmp_path / "ck.json"
        plan = SearchPlan(block_size=2)
        reference = _records(run_search(plan, registry=registry))
        triples = len(list(itertools.combinations_with_replacement(search._block_pool(2), 3)))
        walked = []
        real = search._weight_passes

        def counting(w, d):
            if isinstance(w, int):  # _units; the row rule tests arrays
                walked.append(w)
            return real(w, d)

        monkeypatch.setattr(search, "_weight_passes", counting)
        assert _records(run_search(plan, registry=registry, workers=workers)) == reference
        assert len(walked) == triples
        gen = run_search(plan, registry=registry, checkpoint=path, workers=workers)
        assert _records(itertools.islice(gen, 2)) == reference[:2]
        gen.close()
        del walked[:]
        assert _records(run_search(plan, registry=registry, checkpoint=path,
                                   workers=workers)) == reference
        assert len(walked) == triples

    @pytest.mark.parametrize("plan,stop", [
        (SearchPlan(block_size=2), 9),  # of 11 units, findings in units 8 to 10
        (SearchPlan(block_size=2, mode="sampled", seed=7, budget=400), 150),
    ], ids=["exhaustive", "sampled"])
    def test_each_finding_serialised_once(self, tmp_path, registry, monkeypatch, plan, stop):
        # a checkpointed run serialises each finding when its unit is logged
        # and reuses that record in the finished log; a resumed run reuses
        # the records it replays; and the finished logs of a fresh and a
        # resumed run are the same bytes
        fresh, resumed = tmp_path / "fresh.json", tmp_path / "resumed.json"
        with monkeypatch.context() as m:  # stopped once stop units have run
            m.setattr(search, "_run_units", _runs_then_stops(stop))
            with pytest.raises(_Stopped):
                list(run_search(plan, registry=registry, checkpoint=resumed))
        assert sum(len(u["findings"]) for u in _log_lines(resumed)[1:])  # some replayed
        serialised, appended = [], []
        to_record, append = Finding.to_record, search._CheckpointLog.append
        monkeypatch.setattr(Finding, "to_record", lambda f: serialised.append(f) or to_record(f))
        monkeypatch.setattr(search._CheckpointLog, "append",
                            lambda log, unit, found: appended.extend(found) or append(log, unit, found))
        for path in (fresh, resumed):
            del serialised[:], appended[:]
            stream = list(run_search(plan, registry=registry, checkpoint=path))
            assert serialised == appended and appended
        assert resumed.read_bytes() == fresh.read_bytes()
        (doc,) = _log_lines(fresh)
        assert doc["findings"] == [to_record(f) for f in stream]

    @pytest.mark.parametrize("plan", [
        SearchPlan(block_size=2),
        SearchPlan(block_size=2, target="extremal"),  # no finding
        SearchPlan(block_size=2, mode="sampled", seed=7, budget=400),
    ], ids=["exhaustive", "empty", "sampled"])
    def test_finished_log_is_one_json_document(self, tmp_path, registry, plan):
        # the finished log joins the record texts that append encoded
        path = tmp_path / "ck.json"
        records = _records(run_search(plan, registry=registry, checkpoint=path))
        header = {"version": 2, "plan": plan.to_dict()}
        if plan.mode == "sampled":
            header["draw"] = "ring"
        doc = {**header, "complete": True, "findings": records}
        assert path.read_bytes() == (json.dumps(doc) + "\n").encode()

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
        monkeypatch.setattr(search, "_run_units", _no_unit_runs)
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

    def test_rejection_sampler_log_refused(self, tmp_path, registry):
        # a sampled log the rejection sampler wrote holds the same plan, but
        # its trials drew other specs: resuming it would mix two streams
        path = tmp_path / "ck.json"
        plan = SearchPlan(block_size=2, mode="sampled", seed=7, budget=400)
        text = "".join(json.dumps(doc) + "\n" for doc in (
            {"version": 2, "plan": plan.to_dict()}, {"unit": 0, "findings": []}))
        path.write_text(text)
        with pytest.raises(ValueError, match="rejection sampler"):
            run_search(plan, registry=registry, checkpoint=path)
        assert path.read_text() == text

    def test_exhaustive_log_resumes(self, tmp_path, registry, monkeypatch):
        # an exhaustive log keeps the header it had before the ring draw:
        # one written by hand, with the first four units, resumes and runs
        # only the rest
        path = tmp_path / "ck.json"
        plan = SearchPlan(block_size=2)
        reference = list(run_search(plan, registry=registry))
        units = list(search._units(plan))
        lines = [{"version": 2, "plan": plan.to_dict()}]
        lines += [{"unit": u, "findings": [f.to_record() for f in reference
                                           if f.sort_key()[1] == u]} for u in units[:4]]
        path.write_text("".join(json.dumps(doc) + "\n" for doc in lines))
        ran = []
        run_units = search._run_units
        monkeypatch.setattr(search, "_run_units", lambda plan, units: run_units(
            plan, (ran.append(unit) or unit for unit in units)))
        resumed = run_search(plan, registry=registry, checkpoint=path)
        assert _records(resumed) == _records(reference)
        assert ran == units[4:]
        assert _log_lines(path)[0]["complete"]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_sampled_stopped_run_resumes(self, tmp_path, registry, monkeypatch, workers):
        # stopped, as by a kill, once 150 of 400 trials have run, inline or in a
        # pool, then resumed with the same worker count
        path = tmp_path / "ck.json"
        plan = SearchPlan(block_size=2, mode="sampled", seed=7, budget=400)
        reference = _records(run_search(plan, registry=registry))
        with monkeypatch.context() as m:
            m.setattr(search, "_run_units", _runs_then_stops(150))
            m.setattr(search, "ProcessPoolExecutor", _RecordingPool([], []))
            with pytest.raises(_Stopped):
                list(run_search(plan, registry=registry, checkpoint=path, workers=workers))
        header, *units = _log_lines(path)
        assert header == {"version": 2, "plan": plan.to_dict(), "draw": "ring"}
        # inline, each trial is merged once its stack settles, so the first
        # 150 are logged; in a pool, the group holding trial 150 stopped
        # midway, so the whole groups before it are logged and it is not
        assert len(units) == (150 if workers == 1 else 150 // search._STACK * search._STACK)
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
        monkeypatch.setattr(search, "_run_units", _no_unit_runs)
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


def _no_unit_runs(plan, units):
    raise AssertionError(f"units {units} ran again")


class _Stopped(Exception):
    pass


def _runs_then_stops(count):
    """A _run_units that gives the results of count units, over all its
    calls, then raises _Stopped where the next would come, as a kill
    would: inline, after count units; in a pool, whose worker returns a
    group's results as one list, with the group that would pass count."""
    run_units = search._run_units
    done = 0

    def run(plan, units):
        nonlocal done
        for results in run_units(plan, units):
            if done == count:
                raise _Stopped(done)
            done += 1
            yield results
    return run


class _RecordingPool:
    """Stands in for ProcessPoolExecutor: records each pool's size and the
    groups of units submitted, and runs every call inline, starting no
    process."""

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
        # a pool's future holds the call's result or, as a real pool's does,
        # the exception it raised, for result() to raise
        self.submitted.append(args[1])
        fut = Future()
        try:
            fut.set_result(fn(*args))
        except Exception as exc:
            fut.set_exception(exc)
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


@pytest.fixture(scope="module")
def bases(parent):
    """Self-dual base codes for neighbors: the first spec the length-12
    search verifies, the length-24 base, C2, and C2 with its columns
    shuffled and the support of a basis row moved last: that row vanishes
    on the first 18 columns, so they are not the shuffled code's pivots."""
    rng = random.Random(36)
    row = parent.basis[0]
    perm = []
    for part in ([i for i in range(36) if not row[i]], [i for i in range(36) if row[i]]):
        rng.shuffle(part)
        perm += part
    permuted = Code(36, [Gf3Vector([r[i] for i in perm]) for r in parent.basis])
    assert permuted.is_self_dual() and permuted.pivots != tuple(range(18))
    plan = SearchPlan(block_size=2)
    length12 = next(s for u in search._units(plan) for s in _specs(plan, u))
    return {"length12": build_generator(length12), "length24": _length24_base(),
            "C2": parent, "C2-permuted": permuted}


class TestNeighbor:
    @given(st.sampled_from(["length12", "length24", "C2", "C2-permuted"]),
           st.integers(0, 2**32))
    def test_neighbor_equals_plain_reduction(self, bases, label, seed):
        # the echelon update against naive.neighbor, which reduces kept + [x]
        # from scratch by plain lists
        c = bases[label]
        basis = [r.entries() for r in c.basis]
        rng = random.Random(seed)
        while True:
            x = [rng.randrange(3) for _ in range(c.n)]
            if naive.vweight(x) % 3 == 0 and naive.rank(basis + [x]) > c.k:
                break
        want = naive.neighbor(basis, x)
        assert len(want) == c.k and naive.gram_is_zero(want)
        assert [r.entries() for r in neighbor(c, Gf3Vector(x)).basis] == want

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
            neighbor(parent, Gf3Vector([0] * 12))

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

    @pytest.mark.parametrize("budget", [0, -5])
    def test_sweep_refuses_budget_below_one(self, parent, registry, budget):
        with pytest.raises(ValueError, match="budget of at least 1"):
            neighbor_sweep(parent, budget, 1, registry=registry, parent_label="C2")

    def test_sweep_refuses_at_the_call(self, parent, registry):
        # like the budget, before the first next()
        not_sd = Code(4, [Gf3Vector([1, 0, 0, 0]), Gf3Vector([0, 1, 0, 0])])
        with pytest.raises(NeighborCodeError):
            neighbor_sweep(not_sd, 1, 1, registry=registry, parent_label="not-sd")
        with pytest.raises(ValueError, match="unknown target"):
            neighbor_sweep(parent, 1, 1, target="best", registry=registry, parent_label="C2")

    def test_sweep_needs_a_parent_label(self, parent, registry):
        # without it, a finding's record would not read back
        with pytest.raises(TypeError, match="parent_label"):
            neighbor_sweep(parent, 1, 1, registry=registry)


def _sweep_reference(c, budget, seed, target, registry):
    """neighbor_sweep's stream with each neighbor settled on its own, in a
    stack of one, and the index of the seed behind each finding."""
    d = near_extremal_weight(c.n) if target == "near-extremal" else ms_bound(c.n)
    rng = random.Random(f"{seed}")
    out = []
    for i in range(budget):
        while True:
            x = Gf3Vector(rng.randrange(3) for _ in range(c.n))
            if x.weight() % 3 == 0 and not c.contains(x):
                break
        alpha = weights._settle(weights._code_stack(neighbor(c, x)), d)[0]
        if alpha is not None:
            out.append((i, search.make_finding(registry, "neighbor", c.n, d, alpha,
                                               x=tuple(x.entries()), parent="base")))
    return out


@functools.cache
def _length24_base():
    """The self-dual code of the first spec that sampled length-24 trials
    verify, among at most 10,000, so that a fault that stops every trial
    from verifying fails."""
    plan = SearchPlan(block_size=4, mode="sampled", seed=0, budget=10_000)
    groups = (search._run_units(plan, list(range(t, t + search._STACK)))
              for t in range(0, 10_000, search._STACK))
    spec = next((spec for group in groups for found in group for spec, _ in found), None)
    assert spec is not None, "none of the first 10,000 sampled length-24 trials verified"
    return build_generator(spec)


class TestNeighborWindows:
    """neighbor_sweep settles a window of _STACK seeds in one stacked scan."""

    @pytest.mark.parametrize("target", ["near-extremal", "extremal"])
    @pytest.mark.parametrize("base", ["C2", "C2-permuted", "length24"])
    def test_sweep_matches_stack_of_one_reference(self, registry, bases, base, target):
        code = bases[base]
        reference = _sweep_reference(code, 130, 5, target, registry)
        if target == "near-extremal":
            assert len(reference) > 2  # findings in more than one window
        for budget in (1, 63, 65, 130):
            got = neighbor_sweep(code, budget, 5, target=target, registry=registry,
                                 parent_label="base")
            assert _records(got) == _records(f for i, f in reference if i < budget), budget

    def test_sweep_builds_no_code_per_neighbor(self, registry, parent, monkeypatch):
        # the windows are settled from arrays: no Code is built in a sweep,
        # where neighbor() builds one, the canonical code it returns; every
        # Code, from vectors or from int8 rows, is set up by Code._set
        built = []
        real = Code._set
        monkeypatch.setattr(Code, "_set", lambda self, *args: built.append(1) or real(self, *args))
        found = list(neighbor_sweep(parent, 130, 5, registry=registry, parent_label="C2"))
        assert len(found) > 2 and not built
        neighbor(parent, registry.entry("x1").x)
        assert len(built) == 1


class TestNovelty:
    def test_known_beta(self, registry):
        finding = _fake_finding(36, d=9, alpha=48, beta=6)
        report = novelty_report([finding], 36, registry=registry)
        assert isinstance(report, NoveltyReport)
        (status,) = report.statuses
        assert status.beta == 6
        assert "Gamma36" in status.found_sets
        assert status.known
        assert [s.beta for s in report.statuses if not s.known] == []

    def test_new_beta(self, registry):
        report = novelty_report([_fake_finding(36, 9, 64, 8)], 36,
                                registry=registry)
        (status,) = report.statuses
        assert not status.known
        assert [s.beta for s in report.statuses if not s.known] == [8]
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
    spec = CodeSpec(m, *[Gf3Vector([0] * (3 * m))] * 3)
    return Finding(kind="spec", n=length, spec=spec, d=d, alpha=alpha,
                   beta=beta, novelty=False, sets=())


class TestFindingSerialization:
    def test_round_trip(self, registry):
        plan = SearchPlan(block_size=2)
        found = list(run_search(plan, registry=registry))
        lines = [json.dumps(f.to_record()) for f in found]
        back = read_findings(lines)
        assert [f.to_record() for f in back] == [f.to_record() for f in found]

    def test_neighbor_round_trip(self, parent, registry):
        found = list(neighbor_sweep(parent, budget=64, seed=5, registry=registry,
                                    parent_label="C2"))
        assert found
        assert read_findings([json.dumps(f.to_record()) for f in found]) == found

    def test_pickle_round_trip(self, parent, registry):
        # as the worker pool ships specs and findings: equal, hashes too
        found = list(run_search(SearchPlan(block_size=2), registry=registry))[:2]
        found += list(neighbor_sweep(parent, budget=64, seed=5, registry=registry,
                                     parent_label="C2"))[:1]
        for value in [found[0].spec, *found]:
            back = pickle.loads(pickle.dumps(value))
            assert back == value and hash(back) == hash(value)

    def test_record_fields(self, registry):
        found = list(run_search(SearchPlan(block_size=2), registry=registry))
        rec = found[0].to_record()
        assert rec["kind"] == "spec"
        assert rec["n"] == 12
        assert isinstance(rec["r1"], list) and len(rec["r1"]) == 6
        assert rec["d"] >= 3
        assert rec["alpha"] > 0
