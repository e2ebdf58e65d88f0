"""The benchmark's workloads: what one pass runs, and how its output is checked.

A pass is one user-level command, run in-process through the public API or
the CLI entry point.  ``run_pass`` is the timed part.  ``check`` runs after
the clock has stopped and returns (operations attempted, failure messages).
Every nega3 name is looked up at call time, through its module, so that a
tracer installed between passes sees the calls.
"""

from __future__ import annotations

import collections
import contextlib
import hashlib
import importlib
import io
import json
import runpy
import sys
from pathlib import Path

import oracle

# The exhaustive workloads search one fixed shard of the length-24 space.
# Round-robin shards of that space differ up to threefold in cost (shard
# i of 32 takes 3.5 s to 9.5 s on one core), so a shard chosen by the seed
# would make run-to-run spread a property of the seed rather than of the
# program.  Shard 0 of 64 is 1,470 findings, about 3.3 s.
EXHAUSTIVE_BLOCK = 4
EXHAUSTIVE_SHARD = (0, 64)

# survey-36 sizes: sampled trials, then neighbor-sweep trials of the base code.
SURVEY_BUDGET = 300
SURVEY_SWEEP = 200
SURVEY_BASE = "C2"

VERIFY_ARGVS = (["verify", "--all"], ["verify", "--deep", "--registry", "C1"])


def stream_lines(findings) -> list[str]:
    """The findings stream exactly as ``nega3 search`` prints it."""
    return [json.dumps(f.to_record()) for f in findings]


def digest(lines) -> str:
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode() + b"\n")
    return h.hexdigest()


def _capture(fn, *args):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = fn(*args)
    return rc, out.getvalue(), err.getvalue()


class VerifyAll:
    """``nega3 verify --all`` then ``nega3 verify --deep --registry C1``."""

    name = "verify-all"
    min_passes = 1

    def __init__(self, root: Path, seed: int, workdir: Path, expected: dict):
        self.expected = expected["verify-all"]

    def prepare(self) -> None:
        importlib.import_module("nega3.cli")

    def run_pass(self):
        cli = sys.modules["nega3.cli"]
        return [_capture(cli.main, argv) for argv in VERIFY_ARGVS]

    def check(self, result) -> tuple[int, list[str]]:
        want = self.expected
        got = []
        problems = []
        for argv, (rc, out, err) in zip(VERIFY_ARGVS, result):
            if rc != 0:
                problems.append(f"nega3 {' '.join(argv)} exited {rc}: {err.strip()[-200:]}")
            got.extend(out.splitlines())
        for i, line in enumerate(want):
            have = got[i] if i < len(got) else "<missing>"
            if have != line:
                problems.append(f"verdict {i}: {have!r} != {line!r}")
        if len(got) > len(want):
            problems.append(f"{len(got) - len(want)} unexpected verdict line(s)")
        return len(want), problems


class Exhaustive:
    """Exhaustive near-extremal search of the fixed length-24 shard."""

    name = "exhaustive-24"
    min_passes = 1
    checkpointed = False

    def __init__(self, root: Path, seed: int, workdir: Path, expected: dict):
        self.expected = expected["exhaustive-24"]
        self.checkpoint = workdir / f"{self.name}.checkpoint.json"
        self.registry = None

    def plan(self):
        return sys.modules["nega3"].SearchPlan(
            block_size=EXHAUSTIVE_BLOCK, partition=EXHAUSTIVE_SHARD)

    def prepare(self) -> None:
        self.registry = sys.modules["nega3"].load_registry()

    def run_pass(self):
        search = sys.modules["nega3.search"]
        if not self.checkpointed:
            return list(search.run_search(self.plan(), registry=self.registry))
        self.checkpoint.unlink(missing_ok=True)
        return list(search.run_search(self.plan(), registry=self.registry,
                                      checkpoint=self.checkpoint))

    def check(self, findings) -> tuple[int, list[str]]:
        problems = _check_findings(findings, n=6 * EXHAUSTIVE_BLOCK, d=6)
        lines = stream_lines(findings)
        hist = collections.Counter(f.alpha for f in findings)
        want = self.expected
        got_hist = {str(a): c for a, c in sorted(hist.items())}
        if len(lines) != want["findings"]:
            problems.append(f"{len(lines)} findings, expected {want['findings']}")
        if got_hist != want["alpha"]:
            problems.append(f"alpha histogram {got_hist} != {want['alpha']}")
        if digest(lines) != want["sha256"]:
            problems.append("findings stream digest differs from the frozen one")
        # three findings re-derived by full enumeration of their codes
        for f in (findings[:1] + findings[len(findings) // 2:][:1] + findings[-1:]):
            d, alpha = oracle.min_weight_and_count(oracle.generator(_rows(f)))
            if (d, alpha) != (f.d, f.alpha):
                problems.append(f"{_rows(f)}: oracle d={d} alpha={alpha}, "
                                f"reported d={f.d} alpha={f.alpha}")
        ops = len(findings) + 1
        if self.checkpointed:
            ops += 1
            problems.extend(self._check_checkpoint(lines))
        return ops, problems

    def _check_checkpoint(self, lines: list[str]) -> list[str]:
        problems = []
        doc = json.loads(self.checkpoint.read_text())
        if doc.get("complete") is not True:
            problems.append("final checkpoint is not marked complete")
        if [json.dumps(r) for r in doc.get("findings", ())] != lines:
            problems.append("checkpoint findings differ from the stream")
        search = sys.modules["nega3.search"]
        resumed = list(search.run_search(self.plan(), registry=self.registry,
                                         checkpoint=self.checkpoint))
        if stream_lines(resumed) != lines:
            problems.append("resuming the complete checkpoint gives another stream")
        return problems


class ExhaustiveCheckpointed(Exhaustive):
    """The same shard, writing a fresh checkpoint file."""

    name = "exhaustive-24-ckpt"
    checkpointed = True


class Survey:
    """``scripts/survey36.py``: a sampled n = 6 search, a neighbor sweep of
    C2 and the novelty report, all seeded by the workload seed."""

    name = "survey-36"
    min_passes = 2  # a repeat with the same seed must give the same stream

    def __init__(self, root: Path, seed: int, workdir: Path, expected: dict):
        self.script = root / "scripts" / "survey36.py"
        self.argv = [str(self.script), "--seed", str(seed), "--budget",
                     str(SURVEY_BUDGET), "--sweep", str(SURVEY_SWEEP), "--base", SURVEY_BASE]
        self.first_stream: list[str] | None = None

    def prepare(self) -> None:
        if not self.script.is_file():
            raise FileNotFoundError(self.script)

    def run_pass(self):
        # Loading the script each pass binds the nega3 names current now.
        main = runpy.run_path(str(self.script), run_name="survey36")["main"]
        saved = sys.argv
        sys.argv = self.argv
        try:
            return _capture(main)
        finally:
            sys.argv = saved

    def check(self, result) -> tuple[int, list[str]]:
        rc, out, err = result
        problems = [] if rc == 0 else [f"survey36.py exited {rc}"]
        lines = out.splitlines()
        records = [json.loads(line) for line in lines]
        admissible = sys.modules["nega3"].alpha_constraint(36)
        for rec in records:
            if rec["n"] != 36 or rec["d"] != 9:
                problems.append(f"finding with n={rec['n']} d={rec['d']}")
            if not admissible.contains_alpha(rec["alpha"]):
                problems.append(f"alpha={rec['alpha']} outside alpha_constraint(36)")
            if rec["kind"] == "spec":
                if not oracle.is_self_dual(oracle.generator([rec["r1"], rec["r2"], rec["r3"]])):
                    problems.append(f"spec finding {rec['r1']} is not self-dual")
            elif rec["kind"] != "neighbor" or sum(1 for e in rec["x"] if e) % 3:
                problems.append(f"bad neighbor finding {rec}")
        if records and "novelty at length 36" not in err:
            problems.append("no novelty report on stderr")
        if self.first_stream is None:
            self.first_stream = lines
        elif lines != self.first_stream:
            problems.append("a repeat with the same seed gave another stream")
        return len(records) + 1, problems


def _rows(f) -> list[list[int]]:
    return [r.entries() for r in f.spec.rows]


def _check_findings(findings, n: int, d: int) -> list[str]:
    """Ascending order with no duplicates; each finding a spec of length n
    reporting minimum weight d, self-dual by the oracle's Gram test."""
    problems = []
    keys = [f.sort_key() for f in findings]
    if any(a >= b for a, b in zip(keys, keys[1:])):
        problems.append("findings are not strictly ascending")
    for f in findings:
        if f.kind != "spec" or f.n != n or f.d != d:
            problems.append(f"finding kind={f.kind} n={f.n} d={f.d}")
        elif not oracle.is_self_dual(oracle.generator(_rows(f))):
            problems.append(f"{_rows(f)} is not self-dual")
    return problems


WORKLOADS = {w.name: w for w in (VerifyAll, Exhaustive, ExhaustiveCheckpointed, Survey)}
