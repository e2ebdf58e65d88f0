"""Exit codes, output formats, and refusal messages of the nega3 command."""

import hashlib
import json
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import naive
import pytest

from nega3 import (
    WeightProfile,
    build_generator,
    is_self_dual,
    min_weight,
    neighbor_sweep,
    read_findings,
)
from nega3 import search, verify
from nega3.cli import main

SRC = Path(__file__).resolve().parents[1] / "src"


def run_cli(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


@pytest.fixture
def no_code_work(monkeypatch):
    """Make building or measuring a code during verify fail the test."""
    def refuse(*args, **kwargs):
        raise AssertionError("verify did work before its guard refused")
    monkeypatch.setattr(verify, "build_generator", refuse)
    monkeypatch.setattr(verify, "min_weight", refuse)


class TestVerify:
    def test_c1_exact_line(self, capsys):
        rc, out, err = run_cli(capsys, "verify", "--registry", "C1")
        assert rc == 0
        assert out.splitlines() == [
            "C1: self-dual, d=9, alpha=48, beta=6, near-extremal, "
            "Gleason-consistent"
        ]

    def test_several_labels(self, capsys):
        rc, out, _ = run_cli(capsys, "verify", "--registry", "C2",
                             "--registry", "C3")
        assert rc == 0
        lines = out.splitlines()
        assert lines[0].startswith("C2: self-dual, d=9, alpha=56, beta=7")
        assert lines[1].startswith("C3: self-dual, d=9, alpha=80, beta=10")

    def test_unknown_label(self, capsys):
        rc, _, err = run_cli(capsys, "verify", "--registry", "C99")
        assert rc == 2
        assert "error" in err

    def test_no_arguments(self, capsys):
        rc, _, err = run_cli(capsys, "verify")
        assert rc == 2
        assert "usage error" in err

    def test_file_pass(self, tmp_path, capsys):
        p = tmp_path / "spec.txt"
        p.write_text(
            "r1: 1 1 1 1 0 1\nr2: 1 2 1 2 2 0\nr3: 1 0 2 0 0 0\n")
        rc, out, _ = run_cli(capsys, "verify", "--file", str(p))
        assert rc == 0
        assert out.startswith("ingest-1: self-dual, d=3, alpha=8, beta=1")

    def test_file_fail_names_block_pair(self, tmp_path, capsys):
        p = tmp_path / "bad.txt"
        p.write_text(
            "r1: 1 0 0 0 0 0\nr2: 0 1 0 0 0 0\nr3: 0 0 1 0 0 0\n")
        rc, out, _ = run_cli(capsys, "verify", "--file", str(p))
        assert rc == 1
        assert "FAIL: not self-dual" in out
        assert "(1,1)" in out

    def test_malformed_file(self, tmp_path, capsys):
        p = tmp_path / "bad.txt"
        p.write_text("r1: 1 3 0\nr2: 1 0 0\nr3: 1 0 0\n")
        rc, _, err = run_cli(capsys, "verify", "--file", str(p))
        assert rc == 2
        assert "line 1" in err

    def test_missing_file_is_usage(self, tmp_path, capsys):
        # exit 1 means a verification failed; a path that cannot be read is
        # an error in the request
        rc, out, err = run_cli(capsys, "verify", "--file", str(tmp_path / "missing.txt"))
        assert (rc, out) == (2, "")
        assert err.startswith("error: ") and "missing.txt" in err

    def test_all_pinned(self, capsys):
        # every stored build and neighbor, one verdict line each: the lines
        # perfbench/expected.json holds for the verify-all workload
        rc, out, _ = run_cli(capsys, "verify", "--all")
        assert rc == 0
        assert len(out.splitlines()) == 29
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "6031770ede1b531e5cf310df25734b2018c34743f179b20ad768b2a416158224")

    def test_seconds_per_entry_on_stderr(self, capsys):
        rc, out, err = run_cli(capsys, "verify", "--registry", "C1", "--registry", "C4")
        assert rc == 0
        assert [line.split(":")[0] for line in out.splitlines()] == ["C1", "C4"]
        assert re.fullmatch(r"C1: \d+\.\ds\nC4: \d+\.\ds\n", err)

    def test_deep_c1(self, capsys):
        rc, out, _ = run_cli(capsys, "verify", "--deep", "--registry", "C1")
        assert rc == 0
        assert "Gleason-consistent (full distribution)" in out

    @pytest.mark.parametrize("edit", [
        lambda counts: counts.update({12: counts[12] + 1}),  # one count off by one
        lambda counts: counts.update({12: counts[12] - 1}),
        lambda counts: counts.update({10: 1}),  # a weight the family lacks
        lambda counts: counts.pop(36),  # a weight of the family missing
    ], ids=["plus-one", "minus-one", "extra-weight", "missing-weight"])
    def test_deep_mismatch(self, capsys, monkeypatch, edit):
        real = verify.full_distribution

        def tampered(code, allow_long=False):
            profile = real(code, allow_long=allow_long)
            counts = dict(profile.counts)
            edit(counts)
            return WeightProfile(profile.n, counts)

        monkeypatch.setattr(verify, "full_distribution", tampered)
        rc, out, _ = run_cli(capsys, "verify", "--deep", "--registry", "C1")
        assert rc == 1
        assert out == ("C1: self-dual, d=9, alpha=48, beta=6, near-extremal, "
                       "GLEASON MISMATCH\n")

    @pytest.mark.parametrize("label, alpha, consistent", [
        # the near-extremal check: alpha = 8 beta, beta in [1, 111] at n = 36
        ("C1", 8 * 111, True), ("C1", 8 * 112, False), ("C1", 8 * 6 + 1, False),
        # the extremal check: the family forces A_12 = 42840 at n = 36
        ("C36", 42840, True), ("C36", 42840 + 8, False), ("C36", 42840 - 8, False),
    ])
    def test_cheap_check_against_the_family(self, capsys, monkeypatch, label, alpha,
                                            consistent):
        monkeypatch.setattr(verify, "count_weight", lambda code, w: alpha)
        rc, out, _ = run_cli(capsys, "verify", "--registry", label)
        assert out.endswith(", Gleason-consistent\n" if consistent else ", GLEASON MISMATCH\n")
        if not consistent:
            assert rc == 1

    @pytest.mark.long
    def test_deep_allow_long_c48(self, capsys):
        # 411 * 3^16 of the 3^24 words over negashift orbits, about 210 s on one core
        rc, out, _ = run_cli(capsys, "verify", "--deep", "--allow-long", "--registry", "C48")
        assert rc == 0
        assert "Gleason-consistent (full distribution)" in out

    def test_deep_guard_at_length48(self, capsys, no_code_work):
        rc, _, err = run_cli(capsys, "verify", "--deep", "--registry", "C48")
        assert rc == 3
        assert "refused (resource guard)" in err
        assert "--allow-long" in err
        assert "3^24" in err
        # priced over negashift orbits, as the sweep would run
        assert "411 x 3^16" in err and "roughly 68s" in err

    def test_deep_guard_prices_long_specs_generically(self, tmp_path, capsys, no_code_work):
        # a length-132 spec has k = 66, past the orbit path's 64-bit supports,
        # so its sweep, and the guard's price, is over every word
        p = tmp_path / "spec132.txt"
        row = " ".join(["1"] + ["0"] * 65)
        p.write_text(f"r1: {row}\nr2: {row}\nr3: {row}\n")
        rc, out, err = run_cli(capsys, "verify", "--deep", "--file", str(p))
        assert rc == 3
        assert out == ""
        assert "sweeps 3^66 = " in err
        assert " x 3^" not in err

    def test_deep_all_refuses_before_the_first_line(self, capsys, no_code_work):
        rc, out, err = run_cli(capsys, "verify", "--deep", "--all")
        assert rc == 3
        assert out == ""
        assert "3^24" in err


_SPEC_RECORD = {"kind": "spec", "n": 12, "r1": [1, 0, 0, 1, 1, 0], "r2": [0, 1, 0, 1, 0, 1],
                "r3": [0, 0, 1, 0, 1, 1], "d": 3, "alpha": 8, "beta": 1, "novelty": True,
                "sets": []}
_NEIGHBOR_RECORD = {"kind": "neighbor", "n": 12, "x": [1, 1, 1] + [0] * 9, "parent": "C2",
                    "d": 3, "alpha": 8, "beta": 1, "novelty": True, "sets": []}
# finding records that Finding.from_record refuses with ValueError
_BAD_RECORDS = [
    {**_SPEC_RECORD, "r1": [1.5, 0, 0, 1, 1, 0]},
    {**_SPEC_RECORD, "r2": [True, 1, 0, 1, 0, 1]},
    {**_SPEC_RECORD, "kind": "bogus"},
    {k: v for k, v in _SPEC_RECORD.items() if k != "r3"},
    {**_NEIGHBOR_RECORD, "x": "abc"},
    {**_NEIGHBOR_RECORD, "x": [5, -1, 7]},
    {k: v for k, v in _NEIGHBOR_RECORD.items() if k != "x"},
]
# and the fields beside the rows that to_record would not have written
_BAD_FIELDS = [
    {**_SPEC_RECORD, "n": 99},
    {**_SPEC_RECORD, "n": 12.0},
    {**_NEIGHBOR_RECORD, "n": 6},
    {**_SPEC_RECORD, "d": "x"},
    {**_SPEC_RECORD, "d": True},
    {**_SPEC_RECORD, "d": 0},
    {**_SPEC_RECORD, "alpha": -5},
    {k: v for k, v in _SPEC_RECORD.items() if k != "alpha"},
    {**_SPEC_RECORD, "beta": "b"},
    {**_SPEC_RECORD, "beta": 2},
    {**_SPEC_RECORD, "beta": True},
    {**_SPEC_RECORD, "beta": None},
    {**_SPEC_RECORD, "alpha": 12},
    {**_SPEC_RECORD, "novelty": "yes"},
    {**_SPEC_RECORD, "novelty": False},
    {**_SPEC_RECORD, "sets": ["C1"]},
    {**_SPEC_RECORD, "sets": "abc"},
    {**_SPEC_RECORD, "sets": [7], "novelty": False},
    {k: v for k, v in _SPEC_RECORD.items() if k != "sets"},
    {**_SPEC_RECORD, "parent": "C2"},
    {**_NEIGHBOR_RECORD, "parent": 7},
    {k: v for k, v in _NEIGHBOR_RECORD.items() if k != "parent"},
]


def test_read_findings_refuses_malformed_records():
    good = read_findings([json.dumps(_SPEC_RECORD), json.dumps(_NEIGHBOR_RECORD)])
    assert [f.to_record() for f in good] == [_SPEC_RECORD, _NEIGHBOR_RECORD]
    for rec in _BAD_RECORDS + _BAD_FIELDS:
        with pytest.raises(ValueError):
            read_findings([json.dumps(rec)])


@pytest.mark.parametrize("argv", [
    ["search", "--n", "4", "--mode", "sampled", "--seed", "3", "--budget", "64"],
    ["verify", "--registry", "C1"],
])
def test_output_independent_of_hash_seed(argv):
    # vectors and codes hash their bytes, which Python salts per process
    outs = []
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=os.pathsep.join(
            [str(SRC), os.environ.get("PYTHONPATH", "")]))
        child = subprocess.run([sys.executable, "-m", "nega3.cli", *argv], env=env,
                               capture_output=True, check=True, timeout=300)
        outs.append(child.stdout)
    assert outs[0] == outs[1] and outs[0]


class TestSearch:
    def test_refuses_odd_block_size(self, capsys):
        rc, out, err = run_cli(capsys, "search", "--n", "1")
        assert rc == 2
        assert out == ""
        assert ("refusing: block size 1 gives length 6, which is 2 mod 4; "
                "ternary self-dual codes exist only for lengths divisible by 4, "
                "so there is nothing to search") in err

    def test_exhaustive_n2(self, capsys):
        rc, out, err = run_cli(capsys, "search", "--n", "2")
        assert rc == 0
        findings = read_findings(out.splitlines())
        assert len(findings) == 6
        for f in findings:
            assert is_self_dual(f.spec)
            assert min_weight(build_generator(f.spec)) == f.d == 3
        assert "search complete: 6 finding(s)" in err
        assert "novelty not assessed" in err  # no beta sets at length 12

    def test_sampled_needs_seed(self, capsys):
        rc, _, err = run_cli(capsys, "search", "--n", "2", "--mode", "sampled",
                             "--budget", "50")
        assert rc == 2
        assert "--seed" in err

    def test_sampled_needs_budget(self, capsys):
        rc, _, err = run_cli(capsys, "search", "--n", "2", "--mode", "sampled",
                             "--seed", "4")
        assert rc == 2
        assert err.startswith("usage error: ")
        assert "--budget" in err

    def test_sampled_block_size_past_the_draw_is_usage(self, capsys):
        rc, out, err = run_cli(capsys, "search", "--n", "30", "--mode", "sampled",
                               "--seed", "1", "--budget", "1")
        assert rc == 2
        assert out == ""
        assert err.startswith("usage error: sampled mode cannot draw at block size 30")

    @pytest.mark.parametrize("n", ["-1", "0"])
    def test_block_size_below_one_is_usage(self, capsys, n):
        rc, out, err = run_cli(capsys, "search", "--n", n)
        assert rc == 2
        assert out == ""
        assert err == "usage error: block size must be positive\n"

    def test_sampled_subset(self, capsys):
        # a sampled finding in the exhaustive walk's row form is an
        # exhaustive finding; no block move takes the others into that form
        rc, full_out, _ = run_cli(capsys, "search", "--n", "2")
        assert rc == 0
        rc, out, _ = run_cli(capsys, "search", "--n", "2", "--mode", "sampled",
                             "--seed", "4", "--budget", "60")
        assert rc == 0
        records = [json.loads(line) for line in out.splitlines()]
        full = {json.dumps(r, sort_keys=True) for r in map(json.loads, full_out.splitlines())}
        walk = [r for r in records if naive.in_walk_form(2, [r["r1"], r["r2"], r["r3"]])]
        assert {json.dumps(r, sort_keys=True) for r in walk} <= full
        assert all(naive.walk_form(2, [r["r1"], r["r2"], r["r3"]]) is None
                   for r in records if r not in walk)
        assert 0 < len(walk) < len(records)

    def test_bad_partition(self, capsys):
        rc, _, err = run_cli(capsys, "search", "--n", "2", "--partition", "x")
        assert rc == 2
        assert "INDEX/TOTAL" in err

    def test_sampled_stream_pinned(self, capsys):
        # the sha256 of a seeded sampled stream, so that a change to the
        # sampler's draws cannot pass unseen; pinned when the ring draw
        # replaced the rejection sampler (7 findings before)
        rc, out, _ = run_cli(capsys, "search", "--n", "8", "--mode", "sampled",
                             "--seed", "1", "--budget", "150")
        assert rc == 0
        assert len(out.splitlines()) == 71
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "1c173001f42d47e6558b5a69d58e2b47e592b07f29abd3dd045249167520de31")

    @pytest.mark.parametrize("n, seed, budget, lines, digest", [
        ("6", "0", "300", 257,
         "5daea932ff2b352b7043e1160b7e388deb3f6789c5f7001a17e873c6b130b02f"),
        ("4", "3", "400", 370,
         "18c04ea52d5b105e2e1e4f9c77f151b63ea6be2b8bd55c25a4b1b5907a1f420e"),
    ], ids=["n6-seed0", "n4-seed3"])
    def test_more_sampled_streams_pinned(self, capsys, n, seed, budget, lines, digest):
        rc, out, _ = run_cli(capsys, "search", "--n", n, "--mode", "sampled",
                             "--seed", seed, "--budget", budget)
        assert rc == 0
        assert len(out.splitlines()) == lines
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_length60_witness_rederived(self, capsys):
        # trial 589 of the seed-1 campaign at n = 10 (row width
        # 30) draws a d = 15 code whose beta lies in Gamma60,3
        rc, out, _ = run_cli(capsys, "search", "--n", "10", "--mode", "sampled",
                             "--seed", "1", "--budget", "1500", "--partition", "589/1000")
        assert rc == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "28a7ccdebb8d5eeb73facdf17f434b2440b68dda3826a1b76af00604e41763c5")
        [witness] = read_findings(out.splitlines())
        assert (witness.n, witness.d, witness.alpha, witness.beta) == (60, 15, 24080, 3010)
        assert witness.sets == ("Gamma60,3",) and not witness.novelty
        assert is_self_dual(witness.spec)

    def test_exhaustive_stream_pinned(self, capsys):
        # the shard the exhaustive benchmark workloads search, and the digest
        # perfbench/expected.json holds for it
        rc, out, _ = run_cli(capsys, "search", "--n", "4", "--partition", "0/64")
        assert rc == 0
        assert len(out.splitlines()) == 1470
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "9c7b19f02402ba3da4fa2853c9481b6ffd64d420004762a1312a415e619751e9")

    def test_workers_with_checkpoint(self, tmp_path, capsys):
        path = tmp_path / "ck.json"
        rc, out, _ = run_cli(capsys, "search", "--n", "2", "--workers", "2",
                             "--checkpoint", str(path))
        assert rc == 0
        assert out == run_cli(capsys, "search", "--n", "2")[1]
        assert json.loads(path.read_text())["complete"]

    def test_kill_and_resume(self, tmp_path, capsys):
        # shard 0/256 of length 24: 16 r1 units, 468 findings, about 1 s
        path = tmp_path / "ck.json"
        argv = ["search", "--n", "4", "--partition", "0/256"]
        units = _killed_run(path, argv)
        assert 1 <= len(units) < 16

        rc, resumed, _ = run_cli(capsys, *argv, "--checkpoint", str(path))
        assert rc == 0
        rc, whole, _ = run_cli(capsys, *argv)
        assert rc == 0
        assert resumed.splitlines() == whole.splitlines()
        assert len(whole.splitlines()) == 468

    def test_closed_pipe_and_resume(self, tmp_path, capsys):
        # the same shard's 468 findings overflow a pipe's buffer, so the
        # writes after the first line meet a pipe with no reader: exit 141,
        # nothing on stderr, and the log resumes to the whole stream
        path = tmp_path / "ck.json"
        argv = ["search", "--n", "4", "--partition", "0/256"]
        first, rc, err = _cut_after_one_line([*argv, "--checkpoint", str(path)])
        assert (rc, err) == (141, "")
        assert "complete" not in json.loads(path.read_text().splitlines()[0])

        rc, resumed, _ = run_cli(capsys, *argv, "--checkpoint", str(path))
        assert rc == 0
        rc, whole, _ = run_cli(capsys, *argv)
        assert rc == 0
        assert resumed == whole
        assert first == whole.splitlines(keepends=True)[0]

    def test_exhaustive_resume_ignores_seed_and_budget(self, tmp_path, capsys):
        # an exhaustive run ignores --seed and --budget, so its log records
        # neither, and a rerun resumes it with other values or none
        path = tmp_path / "ck.json"
        argv = ["search", "--n", "2", "--checkpoint", str(path)]
        rc, out, _ = run_cli(capsys, *argv, "--seed", "7", "--budget", "5")
        assert rc == 0 and out
        plan = json.loads(path.read_text())["plan"]
        assert (plan["seed"], plan["budget"]) == (0, None)
        for extra in ([], ["--seed", "3"], ["--budget", "9"]):
            assert run_cli(capsys, *argv, *extra)[:2] == (0, out)

    @pytest.mark.parametrize("where", ["directory", "missing directory"])
    def test_unusable_checkpoint_path_is_usage(self, tmp_path, capsys, where):
        path = tmp_path if where == "directory" else tmp_path / "missing" / "ck.json"
        rc, out, err = run_cli(capsys, "search", "--n", "2", "--checkpoint", str(path))
        assert (rc, out) == (2, "")
        assert err.startswith("error: ") and str(tmp_path) in err

    @pytest.mark.parametrize("header, line, want", [
        ({}, '{"findings": []}', "line 2: not a unit record"),
        ({}, '{"unit": 0}', "line 2: not a unit record"),
        ({}, "[0, []]", "line 2: not a unit record"),
        ({}, "{", "line 2: not a unit record"),
        ({"complete": True}, "", "line 1: complete, but with no findings"),
        # unit 4 is the first r1 at n = 2, so a replay would read its line
        # first; every finding record is parsed when the log is read
        ({}, '{"unit": 4, "findings": 3}', "line 2: not a unit record"),
        ({}, '{"unit": 4, "findings": [{"kind": "spec"}]}', "line 2: not a unit record"),
        ({"complete": True, "findings": [{"kind": "x"}]}, "",
         "line 1: complete, but its findings are not finding records"),
    ] + [({}, json.dumps({"unit": 4, "findings": [rec]}), "line 2: not a unit record")
         for rec in _BAD_RECORDS]
      + [({"complete": True, "findings": [rec]}, "",
          "line 1: complete, but its findings are not finding records") for rec in _BAD_RECORDS]
      + [({}, json.dumps({"unit": 4, "findings": [rec]}), "line 2: not a unit record")
         for rec in _BAD_FIELDS]
      + [({"complete": True, "findings": [rec]}, "",
          "line 1: complete, but its findings are not finding records") for rec in _BAD_FIELDS]
      + [
        # a unit is an int, logged once: 4.0 or true would replay as a unit
        # number, and a second line would replace the first one's findings
        ({}, '{"unit": 4.0, "findings": []}', "line 2: not a unit record"),
        ({}, '{"unit": true, "findings": []}', "line 2: not a unit record"),
        ({}, '{"unit": "4", "findings": []}', "line 2: not a unit record"),
        ({}, '{"unit": 4, "findings": []}\n{"unit": 4, "findings": []}',
         "line 3: not a unit record"),
    ])
    def test_checkpoint_without_its_records_is_usage(self, tmp_path, capsys, monkeypatch, header,
                                                     line, want):
        def refuse(*args):
            raise AssertionError("a unit ran past a malformed checkpoint")

        monkeypatch.setattr(search, "_run_units", refuse)
        assert next(search._units(search.SearchPlan(block_size=2))) == 4
        path = tmp_path / "ck.json"
        plan = {"block_size": 2, "target": "near-extremal", "mode": "exhaustive", "seed": 0,
                "partition": [0, 1], "budget": None}
        lines = [json.dumps({"version": 2, "plan": plan, **header}), line]
        path.write_text("".join(f"{l}\n" for l in lines if l))
        rc, out, err = run_cli(capsys, "search", "--n", "2", "--checkpoint", str(path))
        assert (rc, out) == (2, "")
        assert f"checkpoint {path}, {want}" in err

    def test_rejection_sampler_checkpoint_refused(self, tmp_path, capsys):
        # the same plan, logged by the rejection sampler the ring draw
        # replaced: refused at the call, and the file left as it was
        path = tmp_path / "ck.json"
        plan = {"block_size": 2, "target": "near-extremal", "mode": "sampled", "seed": 4,
                "partition": [0, 1], "budget": 60}
        text = json.dumps({"version": 2, "plan": plan}) + "\n"
        path.write_text(text)
        rc, out, err = run_cli(capsys, "search", "--n", "2", "--mode", "sampled", "--seed", "4",
                               "--budget", "60", "--checkpoint", str(path))
        assert (rc, out) == (2, "")
        assert "rejection sampler" in err
        assert path.read_text() == text

    def test_sampled_kill_and_resume(self, tmp_path, capsys):
        # killed after some trials are logged, one line per trial in trial
        # order, then resumed in a pool
        path = tmp_path / "ck.json"
        argv = ["search", "--n", "4", "--mode", "sampled", "--seed", "3", "--budget", "200"]
        units = _killed_run(path, argv)
        assert 1 <= len(units) < 200
        assert [u["unit"] for u in units] == list(range(len(units)))

        rc, resumed, _ = run_cli(capsys, *argv, "--workers", "2", "--checkpoint", str(path))
        assert rc == 0
        rc, whole, _ = run_cli(capsys, *argv)
        assert rc == 0
        assert resumed.splitlines() == whole.splitlines()
        assert whole


def _child_env():
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC), os.environ.get("PYTHONPATH", "")]))


def _cut_after_one_line(argv):
    """Run nega3 with argv in a child process and close the read end of its
    stdout pipe once the first line is read; return that line, the exit
    status and stderr."""
    with subprocess.Popen(
        [sys.executable, "-m", "nega3.cli", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_child_env(),
    ) as child:
        first = child.stdout.readline()
        child.stdout.close()
        err = child.stderr.read()
    return first.decode(), child.returncode, err.decode()


def _killed_run(path, argv):
    """Run nega3 with argv and a checkpoint at path in a child process,
    SIGKILL it once a unit is logged, and return the whole logged unit
    lines (a line torn by the kill is left out)."""
    with subprocess.Popen(
        [sys.executable, "-m", "nega3.cli", *argv, "--checkpoint", str(path)],
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, env=_child_env(),
    ) as child:
        try:
            deadline = time.monotonic() + 60
            while _whole_lines(path) < 2 and time.monotonic() < deadline:
                time.sleep(0.005)
        finally:
            child.kill()
            child.wait(timeout=60)
    assert child.returncode == -signal.SIGKILL
    text = path.read_text()
    header, *units = map(json.loads, text[: text.rfind("\n")].splitlines())
    assert "complete" not in header
    return units


_EMPTY_DIGEST = hashlib.sha256(b"").hexdigest()


def _whole_lines(path):
    try:
        return path.read_text().count("\n")
    except FileNotFoundError:
        return 0


class TestGleason:
    def test_table_mode(self, capsys):
        rc, out, _ = run_cli(capsys, "gleason", "--n", "36")
        assert rc == 0
        rows = {int(l.split()[0]): l.split()[1:] for l in out.splitlines()}
        assert rows[12] == ["42840", "-9"]
        assert rows[0] == ["1", "0"]
        assert rows[9] == ["0", "1"]
        assert len(rows) == 13  # 0, 3, ..., 36

    def test_instance_alpha0(self, capsys):
        rc, out, err = run_cli(capsys, "gleason", "--n", "36", "--alpha", "0")
        assert rc == 0
        rows = dict(tuple(map(int, l.split())) for l in out.splitlines())
        assert rows[12] == 42840
        assert rows[9] == 0
        assert "beta in [1, 111]" in err

    def test_analytic_check_48(self, capsys):
        rc, out, _ = run_cli(capsys, "gleason", "--n", "48", "--alpha", "8")
        assert rc == 0
        rows = dict(tuple(map(int, l.split())) for l in out.splitlines())
        assert rows[15] == 415008

    def test_analytic_check_72(self, capsys):
        rc, out, _ = run_cli(capsys, "gleason", "--n", "72", "--alpha", "115728")
        assert rc == 0
        rows = dict(tuple(map(int, l.split())) for l in out.splitlines())
        assert rows[72] == 0

    def test_infeasible_alpha_flagged(self, capsys):
        rc, _, err = run_cli(capsys, "gleason", "--n", "36", "--alpha", "8880")
        assert rc == 0  # still prints the formal polynomial
        assert "infeasible" in err

    def test_rejects_non_multiple(self, capsys):
        rc, _, err = run_cli(capsys, "gleason", "--n", "35")
        assert rc == 2
        assert "usage error" in err

    @pytest.mark.parametrize("argv, out_digest, err_digest", [
        (["--n", str(12 * (i + 1))], digest, _EMPTY_DIGEST) for i, digest in enumerate([
            "78f114af44ca343baab0eb5a0afdb2793e6b1a65d6d85e57e92ee1fe1171723d",
            "1fc5df8cdc1b55ee1ddd0edb7b47442da04af77429165fb2778a7c160619110a",
            "5f9e1439a0ffdb4b3864a57c4fc5bf971f81fa2b349f2a6ac78631160df9a224",
            "6ca9a957e8778907c341fc5166202b20ccc2d04a1ee782726516483659536815",
            "c950157632f00d788546ed4f7216c7e8ff1d2b6c0e1102568edbe5b20555391a",
            "f5d72fea0fda9644dedf5843e2c8fd65f24a02febe7a1a7ac212216611391593",
            "2e8b60697cafb2004625306022af1cd8119cf1ca32f476c19b82d5989db1b686",
            "badb2b51ba94dc6c15ef985caed68299aee69c83f299da13df3e92630f7d1dd8",
            "5170d7d6dec0d8b1f2608e04f3b132fa141280a158a292bf0c15063a6526d09d",
            "f1033db1c3c92b066a8191239e897463c8a4996bdfd854d2ba5f949e93cfa858",
            "75cf14e988a5e02185f508db54491cb3cfc4b57d407e7309ee21514a479032b5",
            "0f6f8ed423d0d4dfb088ca0ec11650c0a44747cd11bf23abb0b8664a1f6534a1",
        ])
    ] + [
        (["--n", "36", "--alpha", "0"],
         "4014a308ce03294a201fd040825ca121cd9a9c0473a5bd79f6243fa0a9109b45",
         "f6cd25cf66f5c35eee102087f21446ac1bd0605a34f1dc56e75c16dc3283cec0"),
        (["--n", "36", "--alpha", "8"],
         "55b4c09648f5ea1279af46eb0172b6f311f7479bea4ac43cc5cb05284fc70a1f",
         "f6cd25cf66f5c35eee102087f21446ac1bd0605a34f1dc56e75c16dc3283cec0"),
        (["--n", "36", "--alpha", "48"],
         "fce9b4d4a74f46fd2c6d6ab6e018af4899211fb8206c1b5bf2c4cd7744900437",
         "f6cd25cf66f5c35eee102087f21446ac1bd0605a34f1dc56e75c16dc3283cec0"),
        (["--n", "36", "--alpha", "8880"],
         "0892f618644aed7f4eaa7013f5a82e791ad15ac48c8ac736291f6278b67a1e97",
         "213f71c2bee2967946c8ce7037f7c6388eabdea53cbdce90d7d2d271a1b5bd50"),
        (["--n", "48", "--alpha", "8"],
         "ce79a037432dd193d7b2e5b8734280665bafa4d4d6fa2ac9116081f4295d4271",
         "c66d767efc6346d8d378fc148b10b10f75642297a4dfeb1d3df58de4ac4b2316"),
        (["--n", "72", "--alpha", "115728"],
         "0e5fba59b9cdda19a2420cc3a6a309e0cce10af0ac913d0199cfa726abb9ecd2",
         "b035b3347391a5c6194a26b5a74309d552f3b9ccf46d7d98b3adea9533b788b0"),
    ])
    def test_output_pinned(self, capsys, argv, out_digest, err_digest):
        # the sha256 of stdout and of stderr, byte for byte: the table mode
        # at every length from 12 to 144, and the instances whose stderr
        # carries the admissible range or the infeasibility note
        rc, out, err = run_cli(capsys, "gleason", *argv)
        assert rc == 0
        assert hashlib.sha256(out.encode()).hexdigest() == out_digest
        assert hashlib.sha256(err.encode()).hexdigest() == err_digest


class TestNeighbor:
    def test_stored_seed_x1(self, capsys):
        rc, out, err = run_cli(capsys, "neighbor", "--registry", "C2",
                               "--x-registry", "x1")
        assert rc == 0
        (rec,) = [json.loads(l) for l in out.splitlines()]
        assert rec["kind"] == "neighbor"
        assert rec["parent"] == "C2"
        assert (rec["d"], rec["beta"], rec["novelty"]) == (9, 8, True)
        assert "beta=8" in err
        assert "matching sets: none" in err

    def test_stored_seed_x2(self, capsys):
        rc, out, _ = run_cli(capsys, "neighbor", "--registry", "C2",
                             "--x-registry", "x2")
        assert rc == 0
        (rec,) = [json.loads(l) for l in out.splitlines()]
        assert (rec["d"], rec["beta"], rec["novelty"]) == (9, 11, True)

    def test_membership_clause(self, capsys, registry):
        code = build_generator(registry.entry("C2").spec)
        word = code.basis[0]
        digits = " ".join(str(e) for e in word.entries())
        rc, _, err = run_cli(capsys, "neighbor", "--registry", "C2",
                             "--x", digits)
        assert rc == 1
        assert err.startswith("x in C:")
        assert "neighbor would be" in err

    def test_weight_clause(self, capsys):
        digits = " ".join(["1"] + ["0"] * 35)
        rc, _, err = run_cli(capsys, "neighbor", "--registry", "C2",
                             "--x", digits)
        assert rc == 1
        assert "neighbor precondition failed" in err
        assert "divisible by 3" in err

    def test_length_clause_is_usage(self, capsys):
        # wrong-length x is malformed input, not a failed verification
        rc, _, err = run_cli(capsys, "neighbor", "--registry", "C2",
                             "--x", "1 1 1")
        assert rc == 2
        assert "error" in err

    def test_bad_digits(self, capsys):
        rc, _, err = run_cli(capsys, "neighbor", "--registry", "C2",
                             "--x", "1 3 1")
        assert rc == 2

    def test_directory_as_file_is_usage(self, tmp_path, capsys):
        rc, out, err = run_cli(capsys, "neighbor", "--file", str(tmp_path), "--x", "1")
        assert (rc, out) == (2, "")
        assert err.startswith("error: ") and str(tmp_path) in err

    def test_seed_label_is_not_a_spec(self, capsys):
        rc, _, err = run_cli(capsys, "neighbor", "--registry", "x1",
                             "--x-registry", "x1")
        assert rc == 2
        assert "not a code spec" in err

    def test_sweep_stream_pinned(self, capsys):
        # the sweep stream, recorded when every neighbor was settled on its
        # own, beside the survey36 pin in test_search
        rc, out, _ = run_cli(capsys, "neighbor", "--registry", "C2", "--sweep", "50",
                             "--seed", "3")
        assert rc == 0
        assert len(out.splitlines()) == 33
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "4e429023865aad2fd76a798e5cc4dc22652369e18ab9de5a4b280d5d5d3b50ed")

    def test_sweep_stream_reads_back(self, capsys, registry):
        # each finding names its parent, so the printed stream is the sweep's
        rc, out, _ = run_cli(capsys, "neighbor", "--registry", "C2", "--sweep", "50",
                             "--seed", "3")
        want = list(neighbor_sweep(build_generator(registry.entry("C2").spec), 50, 3,
                                   registry=registry, parent_label="C2"))
        assert rc == 0 and want
        assert read_findings(out.splitlines()) == want

    @pytest.mark.parametrize("budget", ["0", "-5"])
    def test_sweep_budget_below_one(self, capsys, budget):
        rc, out, err = run_cli(capsys, "neighbor", "--registry", "C2", "--sweep", budget,
                               "--seed", "1")
        assert rc == 2
        assert out == ""
        assert "budget of at least 1" in err
        assert "sweep complete" not in err

    @pytest.mark.parametrize("argv", [
        ["--sweep", "3", "--seed", "1", "--x", "1,2"],
        ["--sweep", "3", "--seed", "1", "--x-registry", "x1"],
        ["--x-registry", "x1", "--x", "1,2"],
    ])
    def test_one_seed_source(self, capsys, argv):
        # an invalid --x beside --sweep is refused, not ignored
        rc, out, err = run_cli(capsys, "neighbor", "--registry", "C2", *argv)
        assert (rc, out) == (2, "")
        assert "not allowed with argument" in err
        assert "complete" not in err

    def test_sweep_needs_seed(self, capsys):
        rc, _, err = run_cli(capsys, "neighbor", "--registry", "C2",
                             "--sweep", "3")
        assert rc == 2
        assert "--seed" in err


class TestPlumbing:
    def test_no_command_prints_help(self, capsys):
        rc, _, err = run_cli(capsys)
        assert rc == 2
        assert "usage" in err

    @pytest.mark.parametrize("argv", [
        ["search", "--n", "4", "--partition", "0/256"], ["verify", "--all"],
        ["gleason", "--n", "144"]])
    def test_pipe_without_a_reader(self, argv):
        # as under | head: 141, the status of a writer ended by SIGPIPE, and
        # no error message.  Some of these outputs fit a pipe's buffer, so
        # the read end is closed before the child starts: the first write
        # fails, or for gleason, whose stdout is block-buffered, the flush
        # before exit
        read, write = os.pipe()
        os.close(read)
        try:
            child = subprocess.run([sys.executable, "-m", "nega3.cli", *argv], stdout=write,
                                   stderr=subprocess.PIPE, env=_child_env(), timeout=120)
        finally:
            os.close(write)
        assert (child.returncode, child.stderr) == (141, b"")

    def test_console_script(self):
        proc = subprocess.run(
            [sys.executable, "-m", "nega3.cli", "verify", "--registry", "C4"],
            capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0
        assert "C4: self-dual, d=9, alpha=728, beta=91" in proc.stdout
