#!/usr/bin/env python3
"""Rebuild every stored code and print its verdict with the wall time.

Prints the lines of `nega3 verify --all`, each followed by the seconds
its verification took, so slow entries are easy to spot when the data
files grow.
"""

import argparse
import sys
import time

from nega3 import load_registry, verify_entry


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--only-length", type=int, default=None,
                    help="restrict to entries of one code length")
    args = ap.parse_args()

    registry = load_registry()
    failures = 0
    for entry in registry.entries.values():
        if args.only_length is not None and entry.length != args.only_length:
            continue
        t0 = time.perf_counter()
        report = verify_entry(entry, registry, deep=False, allow_long=False)
        seconds = time.perf_counter() - t0
        failures += not report.ok
        print(f"{entry.label}: {report.summary()} ({seconds:.1f}s)", flush=True)
    print(f"{failures} failure(s)", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
