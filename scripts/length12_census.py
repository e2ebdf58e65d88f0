#!/usr/bin/env python3
"""Exhaust the block-size-2 space and print everything it contains.

Length 12 is small enough to enumerate completely, so it doubles as a
worked example of the reduced search order: the findings stream comes out
in ascending (f(r1), f(r2), f(r3)) order, each followed by its complete
weight distribution.
"""

import argparse
import json

from nega3 import SearchPlan, build_generator, full_distribution, run_search


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--target", choices=("near-extremal", "extremal"),
                    default="near-extremal")
    ap.add_argument("--workers", type=int, default=1)
    args = ap.parse_args()

    plan = SearchPlan(block_size=2, target=args.target)
    print(f"# target d = {plan.target_min_weight}, length {plan.length}")
    total = 0
    for finding in run_search(plan, workers=args.workers):
        total += 1
        print(json.dumps(finding.to_record()))
        dist = full_distribution(build_generator(finding.spec))
        pairs = " ".join(f"{w}:{c}" for w, c in sorted(dist.counts.items()) if c)
        print(f"#   distribution {pairs}")
    print(f"# {total} finding(s)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
