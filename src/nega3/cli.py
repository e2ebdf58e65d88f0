"""Command-line surface: construct, verify, search, sweep, report.

Exit codes are part of the interface and stay stable:

    0  success
    1  a verification failed (non-self-dual spec, wrong d or beta,
       neighbor precondition violated)
    2  usage error (bad flags, unknown label, unsupported size, malformed
       input file, a path that cannot be read or written)
    3  resource guard: the request implies a computation past the default
       budget; the printed message carries the estimate and the flag that
       overrides it

Machine-readable output (one JSON object per line) goes to stdout; all
human-facing summaries go to stderr, so pipelines can consume findings
without scraping.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
import time
from pathlib import Path

from .errors import (
    GuardError,
    NeighborError,
    NeighborMembershipError,
    RegistryError,
    VectorFileError,
)
from .gf3 import Gf3Vector
from .gleason import alpha_constraint, near_extremal_family
from .nega import CodeSpec, build_generator
from .registry import Registry, RegistryEntry, ingest_vector_file, load_registry
from .search import (
    Finding,
    SearchPlan,
    make_finding,
    neighbor,
    neighbor_sweep,
    novelty_report,
    run_search,
)
from .verify import check_deep_guard, verify_entry
from .weights import count_weight, min_weight


class _Usage(Exception):
    pass


def _emit(record: dict):
    print(json.dumps(record), flush=True)


def _say(text: str):
    print(text, file=sys.stderr)


# -- verify -----------------------------------------------------------------


def cmd_verify(args) -> int:
    registry = load_registry()
    todo: list[RegistryEntry] = []
    if args.all:
        todo.extend(registry.entries.values())
    for label in args.registry or ():
        todo.append(registry.entry(label))
    if args.file is not None:
        todo.extend(ingest_vector_file(args.file))
    if not todo:
        raise _Usage("nothing to verify: pass --registry LABEL, --file PATH or --all")

    if args.deep:
        check_deep_guard(todo, allow_long=args.allow_long)

    all_ok = True
    for entry in todo:
        start = time.perf_counter()
        report = verify_entry(entry, registry, deep=args.deep, allow_long=args.allow_long)
        all_ok = all_ok and report.ok
        print(f"{entry.label}: {report.summary()}", flush=True)
        _say(f"{entry.label}: {time.perf_counter() - start:.1f}s")
    return 0 if all_ok else 1


# -- search -----------------------------------------------------------------


def _parse_partition(text: str) -> tuple[int, int]:
    m = re.fullmatch(r"(\d+)/(\d+)", text.strip())
    if not m:
        raise _Usage(f"partition must look like INDEX/TOTAL, got {text!r}")
    return int(m.group(1)), int(m.group(2))


def cmd_search(args) -> int:
    try:
        plan = SearchPlan(
            block_size=args.n,
            target=args.target,
            mode=args.mode,
            seed=args.seed if args.seed is not None else 0,
            partition=_parse_partition(args.partition),
            budget=args.budget,
        )
    except ValueError as exc:
        raise _Usage(str(exc)) from None
    if args.n % 2 == 1:
        _say(
            f"refusing: block size {args.n} gives length {6 * args.n}, which is "
            "2 mod 4; ternary self-dual codes exist only for lengths divisible "
            "by 4, so there is nothing to search"
        )
        return 2
    if args.mode == "sampled" and args.seed is None:
        raise _Usage("sampled mode requires --seed (no wall-clock seeding)")

    registry = load_registry()
    findings: list[Finding] = []
    for finding in run_search(
        plan, registry=registry, workers=args.workers, checkpoint=args.checkpoint
    ):
        findings.append(finding)
        _emit(finding.to_record())

    _say(f"search complete: {len(findings)} finding(s)")
    if findings:
        try:
            _say(novelty_report(findings, plan.length, registry).summary())
        except RegistryError as exc:
            _say(f"novelty not assessed: {exc}")
    return 0


# -- gleason ----------------------------------------------------------------


def cmd_gleason(args) -> int:
    try:
        family = near_extremal_family(args.n)
    except ValueError as exc:
        raise _Usage(str(exc)) from None
    exponents = range(0, args.n + 1, 3)
    if args.alpha is None:
        for e in exponents:
            print(f"{e} {family.base.coefficient(e)} {family.direction.coefficient(e)}")
        return 0
    poly = family.at(args.alpha)
    for e in exponents:
        print(f"{e} {poly.coefficient(e)}")
    negative = poly.negative_exponents()
    if negative:
        _say(
            f"alpha={args.alpha} is infeasible: negative coefficients at weights "
            + ", ".join(str(e) for e in negative)
        )
    try:
        rng = alpha_constraint(args.n)
        _say(
            f"admissible counts at length {args.n}: alpha = {rng.divisor} * beta, "
            f"beta in [{rng.beta_min}, {rng.beta_max}]"
        )
    except ValueError:
        pass
    return 0


# -- neighbor ---------------------------------------------------------------


def _digits_vector(text: str) -> Gf3Vector:
    tokens = [t for t in re.split(r"[\s,]+", text.strip()) if t]
    if not tokens or any(t not in ("0", "1", "2") for t in tokens):
        raise _Usage("--x takes space- or comma-separated digits in {0,1,2}")
    return Gf3Vector(int(t) for t in tokens)


def _parent_spec(args, registry: Registry) -> tuple[str, CodeSpec]:
    if args.registry is not None:
        entry = registry.entry(args.registry)
        if entry.spec is None:
            raise _Usage(f"{args.registry} is not a code spec")
        return entry.label, entry.spec
    if args.file is not None:
        entries = ingest_vector_file(args.file)
        if not entries:
            raise _Usage(f"{args.file} holds no spec records")
        assert entries[0].spec is not None
        return str(args.file), entries[0].spec
    raise _Usage("pass --registry LABEL or --file PATH for the base code")


def cmd_neighbor(args) -> int:
    registry = load_registry()
    parent_label, spec = _parent_spec(args, registry)
    code = build_generator(spec)

    if args.sweep is not None:
        if args.seed is None:
            raise _Usage("--sweep requires --seed (no wall-clock seeding)")
        findings = []
        for finding in neighbor_sweep(
            code, args.sweep, args.seed,
            target=args.target, registry=registry, parent_label=parent_label,
        ):
            findings.append(finding)
            _emit(finding.to_record())
        _say(f"sweep complete: {len(findings)} finding(s) in {args.sweep} trials")
        if findings:
            _say(novelty_report(findings, code.n, registry).summary())
        return 0

    if args.x_registry is not None:
        entry = registry.entry(args.x_registry)
        if entry.x is None:
            raise _Usage(f"{args.x_registry} is not a neighbor seed vector")
        x = entry.x
    elif args.x is not None:
        x = _digits_vector(args.x)
    else:
        raise _Usage("pass --x-registry LABEL, --x DIGITS or --sweep BUDGET")

    ncode = neighbor(code, x)
    d = min_weight(ncode)
    finding = make_finding(registry, "neighbor", ncode.n, d, count_weight(ncode, d),
                           x=tuple(x.entries()), parent=parent_label)
    _emit(finding.to_record())
    known = ", ".join(finding.sets) if finding.sets else "none"
    beta = finding.beta if finding.beta is not None else "n/a"
    _say(
        f"neighbor of {parent_label}: d={d}, alpha={finding.alpha}, "
        f"beta={beta}, matching sets: {known}"
    )
    return 0


# -- plumbing -----------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nega3",
        description="Ternary self-dual codes from negacirculant block tilings.",
    )
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("verify", help="rebuild stored codes and check d, alpha, beta")
    p.add_argument("--registry", action="append", metavar="LABEL",
                   help="registry label to verify (repeatable)")
    p.add_argument("--file", type=Path, help="plain vector file to verify")
    p.add_argument("--all", action="store_true", help="verify every registry entry")
    p.add_argument("--deep", action="store_true",
                   help="compare the complete weight distribution against the enumerator family")
    p.add_argument("--allow-long", action="store_true",
                   help="run computations past the default budget")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("search", help="search first-row triples for codes in the target class")
    p.add_argument("--n", type=int, required=True, help="block size (code length is 6n)")
    p.add_argument("--mode", choices=("exhaustive", "sampled"), default="exhaustive")
    p.add_argument("--target", choices=("near-extremal", "extremal"), default="near-extremal")
    p.add_argument("--seed", type=int, help="base seed (sampled mode only, where it is required)")
    p.add_argument("--budget", type=int, help="number of sampled trials (sampled mode only)")
    p.add_argument("--partition", default="0/1", metavar="I/N",
                   help="process share I of N round-robin shares (default 0/1)")
    p.add_argument("--workers", type=int, default=1,
                   help="worker processes (default 1); at most one per core is started")
    p.add_argument("--checkpoint", type=Path,
                   help="log file for a resumable run, one line per r1 or trial: rerun "
                        "with the same file, and any --workers, to continue")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("gleason", help="print the enumerator family for a length")
    p.add_argument("--n", type=int, required=True, help="code length (multiple of 12)")
    p.add_argument("--alpha", type=int,
                   help="evaluate the family at this minimum-weight count")
    p.set_defaults(func=cmd_gleason)

    p = sub.add_parser("neighbor", help="build and classify neighboring self-dual codes")
    p.add_argument("--registry", metavar="LABEL", help="base code label")
    p.add_argument("--file", type=Path, help="vector file with the base code spec")
    seeds = p.add_mutually_exclusive_group()
    seeds.add_argument("--x-registry", metavar="LABEL", help="stored seed vector label")
    seeds.add_argument("--x", metavar="DIGITS", help="seed vector as digits in {0,1,2}")
    seeds.add_argument("--sweep", type=int, metavar="BUDGET",
                       help="try BUDGET random seed vectors instead of a single one")
    p.add_argument("--seed", type=int, help="sweep seed (required with --sweep)")
    p.add_argument("--target", choices=("near-extremal", "extremal"),
                   default="near-extremal", help="class kept by the sweep")
    p.set_defaults(func=cmd_neighbor)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on usage errors, 0 on --help
        code = exc.code
        return code if isinstance(code, int) else 2
    if getattr(args, "func", None) is None:
        parser.print_help(sys.stderr)
        return 2
    try:
        return args.func(args)
    except _Usage as exc:
        _say(f"usage error: {exc}")
        return 2
    except GuardError as exc:
        _say(f"refused (resource guard): {exc}")
        return 3
    except NeighborMembershipError as exc:
        _say(f"x in C: {exc}")
        return 1
    except NeighborError as exc:
        _say(f"neighbor precondition failed: {exc}")
        return 1
    except (RegistryError, VectorFileError, ValueError, OSError) as exc:
        _say(f"error: {exc}")  # an unreadable path or malformed input
        return 2


if __name__ == "__main__":
    sys.exit(main())
