#!/usr/bin/env python3
"""nega3 benchmark: one workload per process, every output checked.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all          # every workload, one table

Run it from the repository root.  nega3 is imported from ``src/`` next to
this directory and nowhere else; without it the benchmark exits 2.

With ``--trace 0`` the workload runs passes in a closed loop (one pass after
another, one worker) until ``--seconds`` have elapsed, and reports the
end-to-end metrics: ``setup_s`` (median of seven fresh interpreters importing
nega3 and loading the registry), ``wall_ref_s`` and ``cpu_ref_s`` (median
per pass, calibrated against the loops in calibrate.py) and
``peak_rss_mb``.  With ``--trace 1`` it runs one untraced and one traced
pass and reports the per-layer metrics.  The last stdout line is a
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``;
the exit code is 1 when any output check failed.  A run record (machine,
versions, every pass time) goes to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
EXPECTED = HERE / "expected.json"

SETUP_REPEATS = 7
SETUP_CODE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "t = time.perf_counter()\n"
    "import nega3\n"
    "nega3.load_registry()\n"
    "print(time.perf_counter() - t)\n"
)

END_TO_END = {"setup_s": "s", "wall_ref_s": "s", "cpu_ref_s": "s", "peak_rss_mb": "MB"}

# The speed of a shared host drifts by up to a third over minutes, and process
# CPU time drifts with it.  Each pass is therefore timed between two runs of
# the fixed loops in calibrate.py, and its time is divided by their time,
# averaged over the two sides, then multiplied by CALIBRATION_REF_S.  The
# loops are benchmark code, so the parent and a change run the same ones.
CALIBRATION_REF_S = 0.05

# Length-12 exhaustive search used to check the tracer itself.
SELFCHECK_REPEATS = 20
SELFCHECK_FINDINGS = 6


def _calls_self(name: str) -> dict[str, str]:
    return {f"{name}.calls": "count", f"{name}.self_s": "s"}


PER_LAYER = {
    **_calls_self("gf3.Code.init"),
    **_calls_self("gf3.Code.dual"),
    **_calls_self("gf3.Code.is_self_dual"),
    **_calls_self("gf3.Code.contains"),
    **_calls_self("nega.build_generator"),
    **_calls_self("nega.row_gram_is_two"),
    "nega.row_gram_is_two.pass_ratio": "ratio",
    **_calls_self("nega.f_value"),
    **_calls_self("nega.block_row_vectors"),
    **_calls_self("nega.self_dual_violations"),
    **_calls_self("weights.min_weight"),
    "weights.min_weight.reject_ratio": "ratio",
    **_calls_self("weights.count_weight"),
    "weights.count_weight.words": "count",
    "weights.count_weight.words_per_s": "1/s",
    "weights.classify.calls": "count",
    "weights.classify.s": "s",
    **_calls_self("weights.full_distribution"),
    "search.run_search.self_s": "s",
    "search.specs_verified": "count",
    "search.findings": "count",
    "search.findings_per_spec": "ratio",
    "search.checkpoint.bytes": "B",
    "search.checkpoint.s": "s",
    **_calls_self("search.neighbor"),
    "search.neighbor_sweep.self_s": "s",
    "registry.load_registry.s": "s",
    "gleason.s": "s",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
}


def say(text: str) -> None:
    print(text, file=sys.stderr, flush=True)


def import_nega3():
    """Import nega3 from this checkout's src/, or exit 2."""
    if not (SRC / "nega3" / "__init__.py").is_file():
        say(f"benchmark: no nega3 package under {SRC}; run from a full checkout")
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import nega3

    if SRC.resolve() not in Path(nega3.__file__).resolve().parents:
        say(f"benchmark: imported nega3 from {nega3.__file__}, not from {SRC}")
        sys.exit(2)
    return nega3


def measure_setup() -> list[float]:
    """Import plus load_registry, each in a fresh interpreter."""
    out = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC)],
                              cwd=ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"setup interpreter failed: {proc.stderr.strip()[-300:]}")
        out.append(float(proc.stdout.strip().splitlines()[-1]))
    return out


def wchar() -> int:
    """Bytes this process has passed to write calls (Linux /proc/self/io)."""
    try:
        with open("/proc/self/io") as f:
            for line in f:
                if line.startswith("wchar:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux


def machine() -> dict:
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"commit": commit(), "python": platform.python_version(),
            "numpy": numpy.__version__, "nproc": os.cpu_count(), "cpu": cpu}


def commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


class Tally:
    """Operations attempted and failed, with the first few failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def check(self, wl, result) -> None:
        try:
            ops, problems = wl.check(result)
        except Exception:
            ops, problems = 1, [traceback.format_exc()]
        self.attempted += ops
        self.add(problems)

    def add(self, problems: list[str]) -> None:
        self.failed += len(problems)
        self.messages.extend(problems[: max(0, 10 - len(self.messages))])


def run_pass(wl, tally: Tally):
    """One timed pass; returns (wall, cpu, result or None if it raised)."""
    c0, t0 = time.process_time(), time.perf_counter()
    try:
        result = wl.run_pass()
    except Exception:
        result = None
        tally.attempted += 1
        tally.add([traceback.format_exc()])
    return time.perf_counter() - t0, time.process_time() - c0, result


class Calibrator:
    """The calibration loops of ``calibrate.py``, in a child process that
    lives as long as this object's ``with`` block."""

    def __enter__(self):
        self.proc = subprocess.Popen([sys.executable, str(HERE / "calibrate.py")],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        return self

    def measure(self) -> tuple[float, float]:
        """Calibration wall and CPU seconds."""
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        wall, cpu = map(float, self.proc.stdout.readline().split())
        return wall, cpu

    def __exit__(self, *exc):
        self.proc.stdin.close()
        self.proc.wait(timeout=60)
        self.proc.stdout.close()


def timed_run(wl, seconds: float, tally: Tally, record: dict) -> dict:
    """Passes in a closed loop, each between two calibrations."""
    wl.prepare()
    walls, cpus = [], []
    w0 = wchar()
    with Calibrator() as calibrator:
        cals = [calibrator.measure()]
        start = time.perf_counter()
        while True:
            wall, cpu, result = run_pass(wl, tally)
            cals.append(calibrator.measure())
            walls.append(wall)
            cpus.append(cpu)
            if result is not None:
                tally.check(wl, result)
            del result
            if tally.failed or (time.perf_counter() - start >= seconds
                                and len(walls) >= wl.min_passes):
                break
    record.update(pass_wall_s=walls, pass_cpu_s=cpus, calibration_s=cals,
                  wall_s=statistics.median(walls), cpu_s=statistics.median(cpus),
                  wchar=wchar() - w0)

    def reference(times, k):
        return statistics.median(
            t * 2 * CALIBRATION_REF_S / (before[k] + after[k])
            for t, before, after in zip(times, cals, cals[1:]))

    return {"wall_ref_s": reference(walls, 0), "cpu_ref_s": reference(cpus, 1)}


# -- traced run --------------------------------------------------------------


def _observers(nega3, obs: Counter) -> dict:
    count_cost = nega3.weights.count_cost  # the tracer pauses while observers run

    def row_gram(args, kwargs, result):
        obs["row_gram_pass"] += bool(result)

    def min_weight(args, kwargs, result):
        bound = kwargs.get("abort_below", args[1] if len(args) > 1 else None)
        if bound is not None:
            obs["min_weight_bounded"] += 1
            obs["min_weight_rejected"] += result < bound

    def count_weight(args, kwargs, result):
        code, w = args[0], kwargs.get("w", args[1] if len(args) > 1 else None)
        if code.k and w <= code.n:
            obs["count_weight_words"] += count_cost(code, w)

    return {"nega.row_gram_is_two": row_gram, "weights.min_weight": min_weight,
            "weights.count_weight": count_weight}


def layer_metrics(tr, obs: Counter) -> dict:
    calls = tr.calls
    own = tr.self_times()
    total = tr.inclusive_times()
    m: dict[str, float] = {}
    for name in PER_LAYER:
        base, _, field = name.rpartition(".")
        if field == "calls":
            m[name] = calls[base]
        elif field == "self_s":
            m[name] = own.get(base, 0.0)

    def ratio(a, b):
        return a / b if b else 0.0

    specs = tr.count_under("nega.build_generator", "search.run_search")
    findings = calls["search.run_search.items"]
    words = obs["count_weight_words"]
    outer_gleason = tr.inclusive_times(
        lambda a, b: a.startswith("gleason.") and b.startswith("gleason."))
    m.update({
        "nega.row_gram_is_two.pass_ratio":
            ratio(obs["row_gram_pass"], calls["nega.row_gram_is_two"]),
        "weights.min_weight.reject_ratio":
            ratio(obs["min_weight_rejected"], obs["min_weight_bounded"]),
        "weights.count_weight.words": words,
        "weights.count_weight.words_per_s": ratio(words, total.get("weights.count_weight", 0.0)),
        "weights.classify.calls": calls["weights.classify"],
        "weights.classify.s": total.get("weights.classify", 0.0),
        "search.run_search.self_s": own.get("search.run_search", 0.0),
        "search.specs_verified": specs,
        "search.findings": findings,
        "search.findings_per_spec": ratio(findings, specs),
        "search.neighbor_sweep.self_s": own.get("search.neighbor_sweep", 0.0),
        "registry.load_registry.s": total.get("registry.load_registry", 0.0),
        "gleason.s": sum((t for n, t in outer_gleason.items() if n.startswith("gleason.")), 0.0),
        "cli.self_s": sum((t for n, t in own.items() if n.startswith("cli.")), 0.0),
    })
    return m


def section(wl, tally: Tally, tracer=None) -> float:
    """prepare + one pass, under ``tracer`` if given; returns the wall time."""
    if tracer is not None:
        tracer.install()
    try:
        t0 = time.perf_counter()
        wl.prepare()
        result = run_pass(wl, tally)[2]
        wall = time.perf_counter() - t0
    finally:
        if tracer is not None:
            tracer.uninstall()
    if result is not None:
        tally.check(wl, result)
    return wall


def tracer_selfcheck(nega3, tracer_cls) -> list[str]:
    """Length-12 search: traced counts repeat exactly across two runs, and
    self times add up to the untraced wall time up to the tracing overhead."""
    plan = nega3.SearchPlan(block_size=2)
    registry = nega3.load_registry()

    def search_twelve():
        search = sys.modules["nega3.search"]
        return sum(len(list(search.run_search(plan, registry=registry)))
                   for _ in range(SELFCHECK_REPEATS))

    t0 = time.perf_counter()
    search_twelve()
    untraced = time.perf_counter() - t0
    runs = []
    for _ in range(2):
        tr = tracer_cls()
        tr.install()
        try:
            t0 = time.perf_counter()
            found = search_twelve()
            traced = time.perf_counter() - t0
        finally:
            tr.uninstall()
        runs.append((tr, found, traced))
    problems = []
    (tr_a, found_a, traced_a), (tr_b, _, _) = runs
    if found_a != SELFCHECK_FINDINGS * SELFCHECK_REPEATS:
        problems.append(f"length-12 search gave {found_a / SELFCHECK_REPEATS} findings per run")
    if dict(tr_a.calls) != dict(tr_b.calls):
        problems.append("traced call counts differ between two identical runs")
    own = sum(tr_a.self_times().values())
    overhead = traced_a - untraced
    if abs(untraced + overhead - own) > 0.05 * traced_a:
        problems.append(f"self times add up to {own:.4f}s, not to the untraced wall "
                        f"{untraced:.4f}s plus the overhead {overhead:.4f}s")
    for i in range(len(tr_a.start)):
        p = tr_a.parent[i]
        if p >= 0 and not tr_a.start[p] <= tr_a.start[i] <= tr_a.end[i] <= tr_a.end[p]:
            problems.append(f"span {i} lies outside its parent {p}")
            break
    return problems


def traced_run(nega3, wl, make, tally: Tally, record: dict) -> dict:
    from tracer import Tracer

    checkpointed = getattr(wl, "checkpointed", False)
    plain = section(make("exhaustive-24"), tally) if checkpointed else 0.0
    w0 = wchar()
    untraced = section(wl, tally)
    extra = {"search.checkpoint.bytes": 0, "search.checkpoint.s": 0.0}
    if checkpointed:
        extra["search.checkpoint.bytes"] = wchar() - w0
        extra["search.checkpoint.s"] = untraced - plain
    obs: Counter = Counter()
    tr = Tracer(_observers(nega3, obs))
    traced = section(wl, tally, tr)
    metrics = layer_metrics(tr, obs)
    metrics.update(extra)
    metrics["trace.overhead_s"] = traced - untraced
    OUT.mkdir(exist_ok=True)
    trace_path = OUT / f"trace-{wl.name}.tsv.gz"
    tr.write(trace_path)
    tally.attempted += 1
    tally.add(tracer_selfcheck(nega3, Tracer))
    record.update(untraced_wall_s=untraced, traced_wall_s=traced, spans=len(tr.start),
                  trace_file=str(trace_path.relative_to(ROOT)))
    return metrics


# -- entry points ------------------------------------------------------------


def run_workload(args) -> int:
    nega3 = import_nega3()
    import workloads

    expected = json.loads(EXPECTED.read_text())
    OUT.mkdir(exist_ok=True)

    def make(name):
        return workloads.WORKLOADS[name](ROOT, args.seed, OUT, expected)

    wl = make(args.workload)
    tally = Tally()
    record = {"workload": wl.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, **machine()}
    if args.trace:
        values = traced_run(nega3, wl, make, tally, record)
        units = PER_LAYER
    else:
        setups = measure_setup()
        values = timed_run(wl, args.seconds, tally, record)
        values["peak_rss_mb"] = peak_rss_mb()
        values["setup_s"] = statistics.median(setups)
        record["setup_s_samples"] = setups
        units = END_TO_END
    record["ru_maxrss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    record["failures"] = tally.messages
    correct = tally.failed == 0 and tally.attempted > 0
    result = {"correct": correct, "attempted": tally.attempted, "failed": tally.failed,
              "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()}}
    record["result"] = result
    name = f"run-{wl.name}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1) + "\n")
    for msg in tally.messages:
        say(f"benchmark: FAILED: {msg}")
    say(f"benchmark: {wl.name}: {tally.attempted} operations, {tally.failed} failed; "
        f"record in {OUT.name}/{name}")
    print(json.dumps(result), flush=True)
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload in its own process, then one table."""
    import workloads

    rows = []
    status = 0
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed",
               str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            say(f"benchmark: {name} printed no result (exit {proc.returncode})")
            status = 1
            continue
        if proc.returncode != 0 or not result["correct"]:
            status = 1
        rows.append((name, result))
    for name, result in rows:
        fail_frac = result["failed"] / result["attempted"]
        print(f"{name}: fail_frac {fail_frac:g} ({result['failed']}/{result['attempted']})")
        for metric, v in result["metrics"].items():
            print(f"  {metric} {v['value']:.6g} {v['unit']}")
        record = json.loads((OUT / f"run-{name}-seed{args.seed}-trace{args.trace}.json").read_text())
        for metric in ("wall_s", "cpu_s"):  # uncalibrated medians, kept in the run record
            if metric in record:
                print(f"  {metric} {record[metric]:.6g} s")
    return status


def main() -> int:
    import workloads

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    return run_all(args) if args.workload == "all" else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
