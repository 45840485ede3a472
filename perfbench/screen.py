#!/usr/bin/env python3
"""Find the base draws on which the fold loop stalls in pf_eigen.

Runs find_train_track on the unrelabelled base maps of fold-survey (which
contain those of classify-survey) with pf_eigen traced, and prints, per rank,
the draws with a pf_eigen call of at least 50 ms.  A converging call takes
well under 1 ms and a stalled one (10^5 power steps) about 0.6 s, so the cut
does not depend on machine speed.  The result is PF_EIGEN_STALLS in
workloads.py.  Takes about half a minute:

    python3 perfbench/screen.py
"""

import sys
from collections import defaultdict
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import tracing  # noqa: E402
import workloads  # noqa: E402
from outerspace import train_track_algo  # noqa: E402

SLOW_CALL_S = 0.05


def main() -> int:
    for rank, count in workloads.FOLD_COUNTS.items():
        tracer = tracing.Tracer({"pf_eigen": ("outerspace.train_track_algo", "pf_eigen", ())})
        with tracer:
            for i, phi in enumerate(workloads.base_maps(rank, count)):
                tracer.input_id = i
                train_track_algo.find_train_track(phi)
        slow = defaultdict(int)
        for s in tracer.spans:
            if s[tracing.END] - s[tracing.START] >= SLOW_CALL_S:
                slow[s[tracing.INPUT]] += 1
        found = ", ".join(f"{i} ({n} slow calls)" for i, n in sorted(slow.items()))
        print(f"rank {rank}, {count} draws: {found or 'none'}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
