#!/usr/bin/env python3
"""Survey the fold procedure over random free-group automorphisms.

Draws random composites of elementary Nielsen moves, runs the train track
search on each, and tallies the outcomes: expanding train tracks (with their
stretch factors), finite-order certificates, reductions to an invariant
subgraph, and capped non-termination reports.

Example:
    python3 scripts/random_survey.py --rank 3 --samples 200 --seed 7
"""

from __future__ import annotations

import argparse
import random
import statistics
import time
from collections import Counter

from outerspace.cli import int_at_least
from outerspace.marked_metric import random_automorphism
from outerspace.train_track_algo import (
    FiniteOrderCertificate,
    NonTerminationCertificate,
    ReductionCertificate,
    TrainTrackCertificate,
    find_train_track,
)

KINDS = (
    TrainTrackCertificate,
    FiniteOrderCertificate,
    ReductionCertificate,
    NonTerminationCertificate,
)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rank", type=int_at_least(2), default=3)
    parser.add_argument("--samples", type=int_at_least(1), default=200)
    parser.add_argument("--steps", type=int_at_least(0), default=12,
                        help="number of Nielsen moves composed per sample")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    rng = random.Random(args.seed)
    tally: Counter = Counter()
    lams = []
    orders = Counter()
    worst = 0.0
    start = time.perf_counter()
    for _ in range(args.samples):
        phi = random_automorphism(args.rank, args.steps, rng)
        t0 = time.perf_counter()
        cert = find_train_track(phi)
        dt = time.perf_counter() - t0
        worst = max(worst, dt)
        tally[type(cert).__name__] += 1
        if isinstance(cert, TrainTrackCertificate):
            lams.append(cert.lam)
        elif isinstance(cert, FiniteOrderCertificate):
            orders[cert.order] += 1
    total = time.perf_counter() - start

    print(
        f"rank {args.rank}, {args.samples} samples of {args.steps} Nielsen moves, "
        f"seed {args.seed}  ({total:.2f}s total, worst single run {worst:.2f}s)"
    )
    width = max(len(kind.__name__) for kind in KINDS)
    for kind in KINDS:
        n = tally.get(kind.__name__, 0)
        print(f"  {kind.__name__:<{width}}  {n:>5}  ({100.0 * n / args.samples:5.1f}%)")
    if lams:
        print(
            f"\nexpanding stretch factors: min {min(lams):.6f}  "
            f"median {statistics.median(lams):.6f}  max {max(lams):.6f}"
        )
    if orders:
        per = ", ".join(f"order {k}: {v}" for k, v in sorted(orders.items()))
        print(f"finite orders seen: {per}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
