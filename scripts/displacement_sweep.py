#!/usr/bin/env python3
"""Sweep the floored displacement minimizer across a ladder of floors.

For a self-map of a rose this prints, per floor, the minimal stretch factor
found on the thick part of the metric simplex and whether the minimizer sits
on the floor boundary.  Maps whose infimum is realized in the interior
stabilize immediately; maps whose infimum lives at the simplex boundary show
a strictly decreasing stretch with the boundary flag pinned on.  The floors
are the powers 10**-k down to 10**-MIN_FLOOR_EXP that lie below 1/rank, the
largest floor the minimizer admits, so a rank-10 ladder starts at 1e-2.  The
whole ladder is one minimization: the first floor starts at the map's
Perron–Frobenius lengths, and each later floor at the previous floor's
minimizer, so the stretch never rises.

Example:
    python3 scripts/displacement_sweep.py --map "a->ab; b->bab; c->cad; d->dcad"
"""

from __future__ import annotations

import argparse
import math

from outerspace.cli import int_at_least
from outerspace.graph_map import self_map_from_automorphism
from outerspace.lipschitz_metric import min_displacement_on_simplex
from outerspace.marked_metric import Automorphism, rose_point


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--map", default="a->ab; b->bab; c->cad; d->dcad",
                        help="semicolon-separated images, e.g. 'a->ab; b->ba'")
    parser.add_argument("--min-floor-exp", type=int_at_least(1), default=6,
                        help="smallest floor is 10**-THIS (default 6)")
    args = parser.parse_args(argv)
    try:
        phi = Automorphism.from_text(args.map)
    except ValueError as exc:
        parser.error(f"argument --map: {exc}")
    # A floor must lie below 1/rank, so the ladder starts at the first such power of 10.
    floors = [10.0**-k for k in range(1, args.min_floor_exp + 1) if 10**k > phi.rank]
    if not floors:
        parser.error(f"argument --min-floor-exp: no floor 10**-k with k <= "
                     f"{args.min_floor_exp} lies below 1/{phi.rank}")
    m = self_map_from_automorphism(rose_point(phi.rank), phi)
    print(f"map: {args.map}   (rank {phi.rank})")
    print(f"{'floor':>10}  {'lambda':>18}  {'log lambda':>12}  boundary")
    prev = None
    for rep in min_displacement_on_simplex(m, floors):
        drift = "" if prev is None else f"  (drop {prev - rep.lam:+.3e})"
        print(
            f"{rep.floor:>10.0e}  {rep.lam:>18.12f}  {math.log(rep.lam):>12.8f}  "
            f"{str(rep.boundary_flag):<5}{drift}"
        )
        prev = rep.lam
    print(
        "\ninterpretation: a pinned boundary flag with still-decreasing "
        "lambda means the infimum is not realized on any floor; a stable "
        "interior minimum means the displacement is minimized at an "
        "honest point of the simplex."
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
