#!/usr/bin/env python3
"""Sweep the floored displacement minimizer across a ladder of floors.

For a self-map of a rose this prints, per floor, the minimal stretch factor
found on the thick part of the metric simplex and whether the minimizer sits
on the floor boundary.  Maps whose infimum is realized in the interior
stabilize immediately; maps whose infimum lives at the simplex boundary show
a strictly decreasing stretch with the boundary flag pinned on.  The first
floor starts at the map's Perron–Frobenius lengths; each later floor starts
from the previous floor's report: at its minimizer, so the stretch never
rises, and with its constraint rows, so they are built once.

Example:
    python3 scripts/displacement_sweep.py --map "a->ab; b->bab; c->cad; d->dcad"
"""

from __future__ import annotations

import argparse
import math
from dataclasses import dataclass, field
from typing import Tuple

from outerspace.graph_map import self_map_from_automorphism
from outerspace.lipschitz_metric import min_displacement_on_simplex
from outerspace.marked_metric import Automorphism, rose_point


@dataclass(frozen=True)
class SweepConfig:
    map_text: str = "a->ab; b->bab; c->cad; d->dcad"
    floors: Tuple[float, ...] = field(
        default_factory=lambda: tuple(10.0**-k for k in range(1, 7))
    )


def parse_args(argv=None) -> SweepConfig:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--map", dest="map_text", default=SweepConfig.map_text,
                        help="semicolon-separated images, e.g. 'a->ab; b->ba'")
    parser.add_argument("--min-floor-exp", type=int, default=6,
                        help="smallest floor is 10**-THIS (default 6)")
    args = parser.parse_args(argv)
    floors = tuple(10.0**-k for k in range(1, args.min_floor_exp + 1))
    return SweepConfig(map_text=args.map_text, floors=floors)


def main(argv=None) -> int:
    cfg = parse_args(argv)
    phi = Automorphism.from_text(cfg.map_text)
    m = self_map_from_automorphism(rose_point(phi.rank), phi)
    print(f"map: {cfg.map_text}   (rank {phi.rank})")
    print(f"{'floor':>10}  {'lambda':>18}  {'log lambda':>12}  boundary")
    prev = None
    start = None
    for floor in cfg.floors:
        # The previous floor's minimizer is admissible for this smaller floor,
        # and its report carries the map's rows and last LP basis.
        rep = min_displacement_on_simplex(m.domain.graph, m.edge_image, floor, start=start)
        start = rep
        drift = "" if prev is None else f"  (drop {prev - rep.lam:+.3e})"
        print(
            f"{floor:>10.0e}  {rep.lam:>18.12f}  {math.log(rep.lam):>12.8f}  "
            f"{str(rep.boundary_flag):<5}{drift}"
        )
        prev = rep.lam
    if prev is not None:
        print(
            "\ninterpretation: a pinned boundary flag with still-decreasing "
            "lambda means the infimum is not realized on any floor; a stable "
            "interior minimum means the displacement is minimized at an "
            "honest point of the simplex."
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
