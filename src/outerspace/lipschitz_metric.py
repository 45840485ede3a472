"""Non-symmetric stretch distance, displacement minimization, classification.

The distance between two marked metric graphs is the log of the maximal
stretch over the Francaviglia–Martino candidate loops (embedded circles,
figure-eights and barbells) of a difference-of-markings map; this max equals
the optimal Lipschitz constant, so no geometric optimal map is ever built.
Displacement of an automorphism is minimized over a metric simplex with a
floor by a Dinkelbach-type iteration, one linear program per step, whose row
duals certify a lower bound on the minimum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import (
    ClassVar, Dict, FrozenSet, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple, Union,
)

import numpy as np

from . import words
from .graph_core import EdgePath, Graph
from .marked_metric import (
    Automorphism,
    CandidateLoop,
    Metric,
    OuterSpacePoint,
    act,
    candidates,
    _candidate_words,
)
from .graph_map import REL_TOL, GraphMap, difference_of_markings
from .train_track_algo import (
    Certificate,
    FiniteOrderCertificate,
    ReductionCertificate,
    TrainTrackCertificate,
    closed_class,
    find_train_track,
)


class StretchIntegrityError(RuntimeError):
    """A candidate loop had a nullhomotopic image, impossible for equivalences."""


# -- stretch factor and distance -----------------------------------------------


@dataclass(frozen=True)
class DistanceReport:
    """Maximal candidate stretch with its witness and the full ratio table."""

    sigma: object  # Fraction when both metrics are rational, else float
    log_sigma: float
    witness: CandidateLoop
    table: Tuple[Tuple[CandidateLoop, object], ...]


def sigma(x: OuterSpacePoint, y: OuterSpacePoint, m: GraphMap) -> DistanceReport:
    """Maximal stretch of candidate loops of x under a map to y.

    Equals the optimal Lipschitz constant of the homotopy class of m; ratios
    are exact fractions whenever both metrics are rational.  Rational metrics
    are scaled to integer edge lengths so the per-candidate work stays in
    machine integers (candidate tables grow quickly with the edge count).
    """
    exact = x.metric.is_rational and y.metric.is_rational
    x_len = _length_lookup(x, exact)
    y_len = _length_lookup(y, exact)
    best: Optional[Tuple[CandidateLoop, object]] = None
    table: List[Tuple[CandidateLoop, object]] = []
    cands = candidates(x)
    images = _loop_images(m.edge_image, (c.loop.edges for c in cands))
    for c, image in zip(cands, images):
        num = sum(y_len[abs(d)] for d in image)
        if num == 0:
            raise StretchIntegrityError(
                f"candidate {c.loop.edges} has a nullhomotopic image"
            )
        den = sum(k * l for k, l in zip(c.counts, x_len.ordered) if k)
        ratio = (
            Fraction(num * x_len.scale, den * y_len.scale) if exact else num / den
        )
        table.append((c, ratio))
        if best is None or ratio > best[1]:
            best = (c, ratio)
    assert best is not None  # every graph here has at least one candidate
    return DistanceReport(
        sigma=best[1],
        log_sigma=math.log(float(best[1])),
        witness=best[0],
        table=tuple(table),
    )


def _loop_images(
    edge_image: Mapping[int, EdgePath], loops: Iterable[Sequence[int]]
) -> Iterator[Tuple[int, ...]]:
    """Cyclically reduced image of each loop (a closed word of directions)
    under the map with the given edge images.

    Candidate tables grow fast with the edge count, so this works on raw
    direction tuples instead of going through GraphMap.map_path.
    """
    dir_image: Dict[int, Tuple[int, ...]] = {}
    for e, p in edge_image.items():
        dir_image[e] = p.edges
        dir_image[-e] = words.invert_word(p.edges)
    for loop in loops:
        raw: List[int] = []
        for d in loop:
            raw.extend(dir_image[d])
        yield words.cyclic_reduce(raw)


class _length_lookup:
    """Edge lengths as ints scaled by `scale` when exact, else floats."""

    __slots__ = ("scale", "ordered", "_by_edge")

    def __init__(self, x: OuterSpacePoint, exact: bool):
        ids = x.graph.edge_ids
        if exact:
            fracs = [Fraction(x.metric.length(e)) for e in ids]
            self.scale = math.lcm(*(f.denominator for f in fracs))
            self.ordered = [int(f * self.scale) for f in fracs]
        else:
            self.scale = 1
            self.ordered = [float(x.metric.length(e)) for e in ids]
        self._by_edge = dict(zip(ids, self.ordered))

    def __getitem__(self, e: int):
        return self._by_edge[e]


def distance(x: OuterSpacePoint, y: OuterSpacePoint) -> float:
    """log of the maximal stretch of the difference of markings; asymmetric."""
    return sigma(x, y, difference_of_markings(x, y)).log_sigma


def displacement(x: OuterSpacePoint, phi: Automorphism) -> DistanceReport:
    """Stretch report from x to its translate under the automorphism action."""
    y = act(x, phi)
    return sigma(x, y, difference_of_markings(x, y))


# -- displacement minimization over a floored simplex -----------------------------


@dataclass(frozen=True)
class SimplexMinReport:
    metric: Metric
    lam: float  # maximal candidate ratio at `metric`, an upper bound on the minimum
    lower: float  # certified lower bound on the minimum over the floored simplex
    floor: float
    trace: Tuple[Tuple[float, float], ...]  # (lower, upper) after each LP step
    pinned: Tuple[int, ...]  # edges of `metric` at the floor

    @property
    def boundary_flag(self) -> bool:
        return bool(self.pinned)


def _constraint_rows(
    g: Graph, edge_image: Mapping[int, EdgePath]
) -> List[Tuple[Tuple[int, ...], Tuple[int, ...]]]:
    """Deduplicated (image-count, count) rows over all candidate loops; their
    maximal ratio is the stretch of the map at every metric."""
    ids = g.edge_ids
    loops = _candidate_words(g)
    rows = []
    seen = set()
    for w, image in zip(loops, _loop_images(edge_image, loops)):
        B = words.letter_counts(ids, image)
        if not any(B):
            continue  # nullhomotopic image constrains nothing
        C = words.letter_counts(ids, w)
        if (B, C) not in seen:
            seen.add((B, C))
            rows.append((B, C))
    return rows


def linprog(c, **kwargs):
    """scipy.optimize.linprog, imported on first use: scipy takes longer to
    import than most commands take to run, and only minimization needs it."""
    from scipy.optimize import linprog as solve

    return solve(c, **kwargs)


# LP steps per minimization.  Convergence is superlinear at an interior
# minimum (about 5 steps); a minimum on the floor can take about 20.
_MAX_STEPS = 32
_GAP = 1e-12  # relative gap between the bounds at which the minimum is settled


def min_displacement_on_simplex(
    g: Graph,
    edge_image: Mapping[int, EdgePath],
    floor: float,
    start: Optional[Metric] = None,
) -> SimplexMinReport:
    """Minimize the maximal candidate stretch of a fixed topological self-map
    over unit-volume metrics with every edge length at least the floor.

    The objective max_i B_i.l / C_i.l is a min-max linear fractional program,
    solved by the Dinkelbach-type method of Crouzeix, Ferland and Schaible
    (JOTA 47, 1985).  Step k solves one epigraph LP at the current ratio
    lam_k = max_i B_i.l_k / C_i.l_k:

        minimize t  subject to  (B_i - lam_k C_i).l / (C_i.l_k) <= t,
                                sum(l) = 1,  floor <= l <= 1,

    and moves to its point.  The LP's row duals y give a certified lower
    bound: a maximum of ratios is at least any weighted mediant, so the
    minimum is at least min (yB).l / (yC).l over the floored simplex, which
    is attained at one of its n vertices.  The iteration stops when t >= 0
    (l_k is optimal), when the two bounds meet, or when a step no longer
    lowers lam.

    The iteration starts at l_0 = `start` when given (a metric on the edges
    of g, scaled to unit volume and lifted onto the floored simplex), else at
    the barycenter, and the lam it returns is at most lam_0.  A start at the
    minimizer, such as a train track's Perron–Frobenius metric, is usually
    confirmed by the first LP step; a start near it, such as the minimizer
    for a larger floor, saves the steps that approach it.
    """
    ids = g.edge_ids
    n = len(ids)
    if not 0 < floor < 1 / n:
        raise ValueError(f"floor must lie strictly between 0 and 1/{n}")
    if start is not None and start.edge_ids != ids:
        raise ValueError(f"start metric has edges {start.edge_ids}, graph has {ids}")
    rows = _constraint_rows(g, edge_image)
    if not rows:
        raise StretchIntegrityError("self-map stretches no candidate loop")
    Bm = np.array([r[0] for r in rows], dtype=float)
    Cm = np.array([r[1] for r in rows], dtype=float)
    # Vertices of the floored simplex: one edge long, every other at the floor.
    vertices = floor + (1.0 - n * floor) * np.eye(n)

    def max_ratio(ell: np.ndarray) -> float:
        return float(np.max((Bm @ ell) / (Cm @ ell)))

    def mediant_bound(y: np.ndarray) -> float:
        return float(np.min((vertices @ (y @ Bm)) / (vertices @ (y @ Cm))))

    def cleaned(x: np.ndarray) -> np.ndarray:
        # Lift the solver's point onto the floored simplex exactly, so that
        # floor-sized edges never dip below the floor by the solver's tolerance.
        excess = np.maximum(x - floor, 0.0)
        return floor + (1.0 - n * floor) * excess / excess.sum()

    objective = np.zeros(n + 1)
    objective[n] = 1.0
    volume = np.ones((1, n + 1))
    volume[0, n] = 0.0
    bounds = [(floor, 1.0)] * n + [(None, None)]
    t_column = -np.ones((len(rows), 1))

    if start is None:
        ell = np.full(n, 1.0 / n)
    else:
        lengths = np.array([float(start.length(e)) for e in ids])
        ell = cleaned(lengths / lengths.sum())
    lam = max_ratio(ell)
    lower = min(lam, mediant_bound(np.ones(len(rows))))
    trace: List[Tuple[float, float]] = []
    for _ in range(_MAX_STEPS):
        scale = Cm @ ell
        res = linprog(
            objective,
            A_ub=np.hstack(((Bm - lam * Cm) / scale[:, None], t_column)),
            b_ub=np.zeros(len(rows)),
            A_eq=volume,
            b_eq=np.ones(1),
            bounds=bounds,
            method="highs",
        )
        if res.status != 0:
            break
        y = np.maximum(-res.ineqlin.marginals, 0.0) / scale
        if y.any():
            lower = max(lower, mediant_bound(y))
        step = cleaned(res.x[:n])
        step_lam = max_ratio(step)
        improved = step_lam < lam
        if improved:
            ell, lam = step, step_lam
        lower = min(lower, lam)  # only rounding can lift a true bound above lam
        trace.append((lower, lam))
        if res.fun >= 0 or lam - lower <= _GAP * lam or not improved:
            break
    tol = max(1e-7, 1e-3 * floor)
    return SimplexMinReport(
        metric=Metric({e: float(ell[i]) for i, e in enumerate(ids)}),
        lam=lam,
        lower=lower,
        floor=floor,
        trace=tuple(trace),
        pinned=tuple(e for i, e in enumerate(ids) if ell[i] <= floor + tol),
    )


# -- trichotomy classifier ----------------------------------------------------------


@dataclass(frozen=True)
class Elliptic:
    order: int
    certificate: FiniteOrderCertificate
    kind: ClassVar[str] = "elliptic"


@dataclass(frozen=True)
class Hyperbolic:
    lam: float
    point: OuterSpacePoint
    certificate: TrainTrackCertificate
    simplex: SimplexMinReport
    kind: ClassVar[str] = "hyperbolic"


@dataclass(frozen=True)
class ParabolicSuspect:
    invariant_chain: Tuple[FrozenSet[int], ...]
    sweep: Tuple[Tuple[float, float, bool], ...]  # (floor, lambda, boundary)
    certificate: ReductionCertificate
    kind: ClassVar[str] = "parabolic_suspect"


@dataclass(frozen=True)
class Inconclusive:
    reason: str
    certificate: Certificate
    # For a train track certificate, the numbers that decided the verdict
    # besides its growth rate: the maximal candidate ratio at its PF metric
    # and the simplex minimization (upper and lower bounds, floor, pinned edges).
    pf_ratio: Optional[float] = None
    simplex: Optional[SimplexMinReport] = None
    kind: ClassVar[str] = "inconclusive"


Classification = Union[Elliptic, Hyperbolic, ParabolicSuspect, Inconclusive]

_CLASSIFY_FLOOR = 1e-6


def classify(phi: Automorphism, trials: int = 3) -> Classification:
    """Sort an outer automorphism into the displacement trichotomy.

    Finite-order certificate -> elliptic.  Train track certificate -> hyperbolic
    when it is certified at its Perron–Frobenius (PF) metric: the maximal
    candidate ratio there is at most lambda(1 + REL_TOL), the simplex
    minimizer's lower bound is at least lambda(1 - REL_TOL), and every PF
    edge is longer than the floor.  The PF point then realizes the minimum
    displacement in the interior, whichever LP vertex the minimizer returned.
    The minimization starts at the PF point, so its first LP step usually
    confirms it and stops.  Reduction certificate -> parabolic suspect, with
    the invariant chain and a floor sweep showing the boundary-pinned minima;
    each floor after the first starts at the previous floor's minimizer,
    which the smaller floor still admits, so the sweep lambda cannot rise
    (beyond rounding).  Anything else is inconclusive, with the trace and the
    deciding numbers as evidence.
    """
    cert = find_train_track(phi)
    if isinstance(cert, FiniteOrderCertificate):
        return Elliptic(order=cert.order, certificate=cert)
    if isinstance(cert, TrainTrackCertificate):
        m = cert.graph_map
        rep = min_displacement_on_simplex(
            m.domain.graph, m.edge_image, floor=_CLASSIFY_FLOOR, start=cert.metric
        )
        lam = cert.lam
        pf_ratio = float(sigma(m.domain, m.codomain, m).sigma)
        failed = []
        if pf_ratio > lam * (1 + REL_TOL):
            failed.append("the PF metric stretches a candidate by more than lambda")
        if rep.lower < lam * (1 - REL_TOL):
            failed.append("the simplex lower bound is below lambda")
        if min(cert.metric.length(e) for e in cert.metric.edge_ids) <= rep.floor:
            failed.append("the PF metric reaches the floor")
        if not failed:
            return Hyperbolic(lam=lam, point=m.domain, certificate=cert, simplex=rep)
        return Inconclusive(
            reason="train track found but " + "; ".join(failed),
            certificate=cert,
            pf_ratio=pf_ratio,
            simplex=rep,
        )
    if isinstance(cert, ReductionCertificate):
        chain: List[FrozenSet[int]] = [cert.subset]
        while True:
            sub = closed_class(cert.matrix.submatrix(chain[-1]))
            if sub is None or not sub < chain[-1]:
                break
            chain.append(sub)
        m = cert.graph_map
        sweep = []
        start = None
        for i in range(max(1, trials)):
            rep = min_displacement_on_simplex(
                m.domain.graph, m.edge_image, floor=10.0 ** (-2 - i), start=start
            )
            sweep.append((rep.floor, rep.lam, rep.boundary_flag))
            start = rep.metric
        return ParabolicSuspect(
            invariant_chain=tuple(chain), sweep=tuple(sweep), certificate=cert
        )
    return Inconclusive(reason=cert.reason, certificate=cert)
