"""Non-symmetric stretch distance, displacement minimization, classification.

The distance between two marked metric graphs is the log of the maximal
stretch over the Francaviglia–Martino candidate loops (embedded circles,
figure-eights and barbells) of a difference-of-markings map; this max equals
the optimal Lipschitz constant, so no geometric optimal map is ever built.
Displacement of an automorphism is minimized over a metric simplex with a
floor by bisecting on the stretch bound, with a linear feasibility test per
step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import ClassVar, Dict, FrozenSet, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np
from scipy.optimize import linprog

from .graph_core import EdgePath, Graph, cyclic_reduce, reduce_path
from .marked_metric import (
    Automorphism,
    CandidateLoop,
    Metric,
    OuterSpacePoint,
    act,
    candidates,
    _candidate_words,
)
from .graph_map import GraphMap, difference_of_markings
from .train_track_algo import (
    Certificate,
    FiniteOrderCertificate,
    NonTerminationCertificate,
    ReductionCertificate,
    TrainTrackCertificate,
    closed_class,
    find_train_track,
)

REL_TOL = 1e-9


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
    # The candidate table grows fast with the edge count, so the loop below
    # works on raw direction tuples instead of going through map_path.
    dir_image: Dict[int, Tuple[int, ...]] = {}
    for e, p in m.edge_image.items():
        dir_image[e] = p.edges
        dir_image[-e] = tuple(-d for d in reversed(p.edges))
    best: Optional[Tuple[CandidateLoop, object]] = None
    table: List[Tuple[CandidateLoop, object]] = []
    for c in candidates(x):
        raw: List[int] = []
        for d in c.loop.edges:
            raw.extend(dir_image[d])
        num = sum(y_len[abs(d)] for d in cyclic_reduce(tuple(raw)))
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
    lam: float
    floor: float
    trace: Tuple[Tuple[float, float], ...]  # (lower, upper) per bisection step
    boundary_flag: bool


def _counts(edge_ids: Tuple[int, ...], word: Sequence[int]) -> Tuple[int, ...]:
    tally = {e: 0 for e in edge_ids}
    for d in word:
        tally[abs(d)] += 1
    return tuple(tally[e] for e in edge_ids)


def _constraint_rows(
    g: Graph, edge_image: Mapping[int, EdgePath]
) -> List[Tuple[Tuple[int, ...], Tuple[int, ...]]]:
    """Deduplicated (image-count, count) rows over all candidate loops; their
    maximal ratio is the stretch of the map at every metric."""
    ids = g.edge_ids
    images = {e: edge_image[e].edges for e in ids}
    rows = []
    seen = set()
    for w in _candidate_words(g):
        img: List[int] = []
        for d in w:
            img.extend(images[d] if d > 0 else [-t for t in reversed(images[-d])])
        reduced = reduce_path(g, EdgePath(tuple(img), closed=True))
        B = _counts(ids, reduced.edges)
        if not any(B):
            continue  # nullhomotopic image constrains nothing
        C = _counts(ids, w)
        if (B, C) not in seen:
            seen.add((B, C))
            rows.append((B, C))
    return rows


def min_displacement_on_simplex(
    g: Graph,
    edge_image: Mapping[int, EdgePath],
    floor: float,
    iters: int = 60,
) -> SimplexMinReport:
    """Minimize the maximal candidate stretch of a fixed topological self-map
    over unit-volume metrics with every edge length at least the floor.

    Bisection on the stretch bound; each step asks a linear program whether
    some floored metric keeps every candidate ratio at or below the bound.
    """
    ids = g.edge_ids
    n = len(ids)
    if not 0 < floor < 1 / n:
        raise ValueError(f"floor must lie strictly between 0 and 1/{n}")
    rows = _constraint_rows(g, edge_image)
    if not rows:
        raise StretchIntegrityError("self-map stretches no candidate loop")
    Bm = np.array([r[0] for r in rows], dtype=float)
    Cm = np.array([r[1] for r in rows], dtype=float)

    def feasible(lam: float) -> Optional[np.ndarray]:
        res = linprog(
            c=np.zeros(n),
            A_ub=Bm - lam * Cm,
            b_ub=np.zeros(len(rows)),
            A_eq=np.ones((1, n)),
            b_eq=np.ones(1),
            bounds=[(floor, 1.0)] * n,
            method="highs",
        )
        return res.x if res.status == 0 else None

    bary = np.full(n, 1.0 / n)

    def max_ratio(ell: np.ndarray) -> float:
        return float(np.max((Bm @ ell) / (Cm @ ell)))

    hi = max_ratio(bary)
    lo = min(1.0, float(np.min((Bm @ bary) / (Cm @ bary))))
    best = bary
    trace: List[Tuple[float, float]] = []
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        x = feasible(mid)
        if x is not None:
            hi, best = mid, x
        else:
            lo = mid
        trace.append((lo, hi))
    # At the degenerate final bound the solver's point can violate a tight row
    # by its tolerance, which the small floor-sized denominators would amplify;
    # re-solving at slightly relaxed bounds lands on an accurate vertex instead.
    def cleaned(x: np.ndarray) -> np.ndarray:
        x = np.maximum(x, floor)
        return x / x.sum()

    ell = cleaned(best)
    for pad in (1e-9, 1e-8, 1e-7, 1e-6):
        polished = feasible(hi * (1.0 + pad))
        if polished is not None:
            candidate = cleaned(polished)
            if max_ratio(candidate) < max_ratio(ell):
                ell = candidate
    tol = max(1e-7, 1e-3 * floor)
    return SimplexMinReport(
        metric=Metric({e: float(ell[i]) for i, e in enumerate(ids)}),
        lam=max_ratio(ell),
        floor=floor,
        trace=tuple(trace),
        boundary_flag=bool(np.any(ell <= floor + tol)),
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
    kind: ClassVar[str] = "inconclusive"


Classification = Union[Elliptic, Hyperbolic, ParabolicSuspect, Inconclusive]


def classify(phi: Automorphism, trials: int = 3) -> Classification:
    """Sort an outer automorphism into the displacement trichotomy.

    Finite-order certificate -> elliptic.  Train track certificate whose
    simplex minimum is interior and matches the stretch factor -> hyperbolic.
    Reduction certificate -> parabolic suspect, with the invariant chain and
    a floor sweep showing the boundary-pinned minima.  Anything else is
    inconclusive, with the trace as evidence.
    """
    cert = find_train_track(phi)
    if isinstance(cert, FiniteOrderCertificate):
        return Elliptic(order=cert.order, certificate=cert)
    if isinstance(cert, TrainTrackCertificate):
        m = cert.graph_map
        rep = min_displacement_on_simplex(m.domain.graph, m.edge_image, floor=1e-6)
        interior = not rep.boundary_flag
        agrees = abs(rep.lam - cert.lam) <= 1e-6 * max(1.0, cert.lam)
        if interior and agrees:
            return Hyperbolic(
                lam=cert.lam, point=m.domain, certificate=cert, simplex=rep
            )
        return Inconclusive(
            reason="train track found but the simplex minimum is not an interior match",
            certificate=cert,
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
        for i in range(max(1, trials)):
            rep = min_displacement_on_simplex(
                m.domain.graph, m.edge_image, floor=10.0 ** (-2 - i)
            )
            sweep.append((rep.floor, rep.lam, rep.boundary_flag))
        return ParabolicSuspect(
            invariant_chain=tuple(chain), sweep=tuple(sweep), certificate=cert
        )
    return Inconclusive(reason=cert.reason, certificate=cert)
