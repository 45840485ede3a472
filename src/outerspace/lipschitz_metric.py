"""Non-symmetric stretch distance, displacement minimization, classification.

The distance between two marked metric graphs is the log of the maximal
stretch over the Francaviglia–Martino candidate loops (embedded circles,
figure-eights and barbells) of a difference-of-markings map; this max equals
the optimal Lipschitz constant, so no geometric optimal map is ever built.
Displacement of an automorphism is minimized over a metric simplex with a
floor by a Dinkelbach-type iteration, one linear program per step, solved as
a matrix game by a small dense dual simplex; the program's row duals certify
a lower bound on the minimum.  Classifying a train track needs no such
program: a legal loop and an exact bracket of its growth rate certify it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import ClassVar, FrozenSet, List, Optional, Sequence, Tuple, Union

import numpy as np

from . import words
from .graph_core import EdgePath
from .marked_metric import Automorphism, CandidateLoop, Metric, OuterSpacePoint, candidates
from .graph_map import GraphMap, find_legal_loop
from .train_track_algo import (
    Certificate,
    FiniteOrderCertificate,
    ReductionCertificate,
    TrainTrackCertificate,
    find_train_track,
    growth_bracket,
    invariant_chain,
    pf_eigen,
    transition_matrix,
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
    are exact fractions whenever both metrics are rational.  Each length is
    read from a table indexed by direction (+e and -e), built once per metric,
    as are the map's edge images, so a candidate costs one dict read per
    letter of its image and of itself.  Rational lengths enter those tables as integers, scaled by the
    lcm of their denominators, so the sums stay in machine integers and each
    ratio is one Fraction.  Every ratio shares the scales, so the maximum is
    tracked on the integer pair (num, den) by cross-multiplication; float
    ratios are compared as floats.  The first candidate of the largest ratio
    is the witness.
    """
    exact = x.metric.is_rational and y.metric.is_rational
    x_scale, x_len = x.metric.direction_lengths(exact)
    y_scale, y_len = y.metric.direction_lengths(exact)
    best = -1
    best_num, best_den = 0, 1  # lengths are positive: any candidate beats 0/1
    best_ratio = -math.inf
    table: List[Tuple[CandidateLoop, object]] = []
    for i, c in enumerate(candidates(x)):
        image = words.cyclic_image(m.direction_image, c.loop.edges)
        num = sum(map(y_len.__getitem__, image))
        if num == 0:
            raise StretchIntegrityError(
                f"candidate {c.loop.edges} has a nullhomotopic image"
            )
        den = sum(map(x_len.__getitem__, c.loop.edges))
        if exact:
            table.append((c, Fraction(num * x_scale, den * y_scale)))
            if num * best_den > best_num * den:
                best, best_num, best_den = i, num, den
        else:
            ratio = num / den
            table.append((c, ratio))
            if ratio > best_ratio:
                best, best_ratio = i, ratio
    assert best >= 0  # every graph here has at least one candidate
    witness, top = table[best]
    return DistanceReport(
        sigma=top,
        log_sigma=math.log(float(top)),
        witness=witness,
        table=tuple(table),
    )


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


def _constraint_rows(m: GraphMap) -> List[Tuple[Tuple[int, ...], Tuple[int, ...]]]:
    """Deduplicated (image-count, count) rows over the candidate loops of the
    self-map's domain; their maximal ratio is the stretch of m at every
    metric.  A candidate with a nullhomotopic image raises, as in sigma."""
    ids = m.domain.graph.edge_ids
    rows = []
    seen = set()
    for c in candidates(m.domain):
        w = c.loop.edges
        image = words.cyclic_image(m.direction_image, w)
        if not image:
            raise StretchIntegrityError(f"candidate {w} has a nullhomotopic image")
        B = words.letter_counts(ids, image)
        C = words.letter_counts(ids, w)
        if (B, C) not in seen:
            seen.add((B, C))
            rows.append((B, C))
    return rows


class GameSolveError(ArithmeticError):
    """The dual simplex of a matrix game found no entering column, reached a
    singular basis or hit its pivot cap."""


_PIVOT_TOL = 1e-13  # relative: the mapped game's value lies in [1, 2]
_PAYOFF_RANGE = 1e6  # mapped payoffs lie within about this of the value
_WARM_COND = 1e8  # largest condition number of a basis to start from


def solve_matrix_game(
    P: np.ndarray, basis: Optional[np.ndarray] = None
) -> Tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]:
    """Optimal strategies (mu, y) of the zero-sum game with payoff matrix P,
    and the optimal basis that gave them: mu in the simplex of columns
    minimizes max_i (P mu)_i, y in the simplex of rows maximizes
    min_j (y P)_j, and both reach the game's value.

    The best pure strategies bound the value: L = max_i min_j P_ij <= value
    <= min_j max_i P_ij = U, and when L = U they are optimal as they are
    (the basis returned is then None).  Otherwise the affine map
    Q = 1 + (P - L) / S, with S the larger of U - L and P's range divided by
    _PAYOFF_RANGE, puts the value in [1, 2] and changes no optimal strategy.
    S stays near U - L so that huge payoffs do not round the value's digits
    away (a floored step's payoffs reach about lam / floor while its value
    nears 0); its lower limit keeps the tableau's entries within
    _PAYOFF_RANGE of each other, whose products would lose those digits
    instead.  Every column of Q has an entry >= 1, so the row player's LP
    min 1.w  s.t.  Q^T w >= 1, w >= 0  is feasible, with value 1 / value(Q).

    A dual simplex solves it on an (n + 1) x (m + n + 1) tableau with one
    row per column of P, whose columns are the m entries of w and the n
    surpluses.  It starts from `basis` (n distinct columns, such as the
    basis an earlier solve returned) when that basis is nonsingular, with a
    condition number below _WARM_COND, and dual feasible here: every cost at
    least -_PIVOT_TOL.  Consecutive Dinkelbach steps, and the floors of one
    sweep, mostly share their optimal basis, so a warm start often needs no
    pivot.  Otherwise it starts from the all-slack basis, which is dual
    feasible because every cost is 1 or 0.  Dantzig's rule picks the leaving
    row and a Harris ratio test the entering column; Bland's rule takes over
    while the objective stalls.  When the tableau shows no infeasible row,
    its basis is solved again from Q, and pivoting goes on if that shows
    one.  The strategies come from that solve, so the tableau's rounding
    reaches neither: the basic w give y = w / sum(w), and the basis duals z
    (a solution of  max 1.z  s.t.  Q z <= 1, z >= 0) give mu = z / sum(z).
    On a degenerate game, a warm start may end at another optimal vertex
    than a cold one.  Raises ValueError when `basis` is not n distinct
    columns of the tableau, and GameSolveError when the simplex fails.
    """
    m, n = P.shape
    if basis is not None:
        basis = np.array(basis, dtype=np.intp)  # a copy: pivoting writes to it
        cols = basis.tolist()
        if basis.shape != (n,) or len(set(cols)) < n or min(cols) < 0 or max(cols) >= m + n:
            raise ValueError(f"a basis of a {m}x{n} game is {n} distinct columns below {m + n}")
    row_min, col_max = P.min(axis=1), P.max(axis=0)
    lo, hi = float(row_min.max()), float(col_max.min())
    if lo >= hi:  # a saddle point: the best pure strategies are optimal
        return np.eye(n)[np.argmin(col_max)], np.eye(m)[np.argmax(row_min)], None
    scale = max(hi - lo, float(col_max.max() - row_min.min()) / _PAYOFF_RANGE)
    Q = 1.0 + (P - lo) / scale
    # Row j: -(Q^T w)_j + s_j = -1 for a surplus s_j >= 0; last row: costs.
    data = np.zeros((n + 1, m + n + 1))
    data[:n, :m] = -Q.T
    data[:n, m:-1] = np.eye(n)
    data[:n, -1] = -1.0
    data[n, :m] = 1.0

    def tableau(basis: np.ndarray) -> np.ndarray:
        try:
            rows = np.linalg.solve(data[:n, basis], data[:n])
        except np.linalg.LinAlgError as exc:
            raise GameSolveError(f"singular basis of a {m}x{n} game") from exc
        return np.vstack((rows, data[n] - data[n, basis] @ rows))

    T = None
    if basis is not None:
        try:
            T = tableau(basis)
        except GameSolveError:  # singular: start cold
            pass
        else:
            # The surplus columns of the data are the identity, so the
            # tableau holds the basis's inverse there, which gives its 1-norm
            # condition number.
            norm = np.abs(data[:n, basis]).sum(axis=0).max()
            cond = norm * np.abs(T[:n, m:-1]).sum(axis=0).max()
            if not (cond <= _WARM_COND and T[n, :-1].min() >= -_PIVOT_TOL):
                T = None
    if T is None:
        basis = np.arange(m, m + n)
        T = data.copy()  # the all-slack basis's tableau
    fresh = True  # T was computed from the data, not by pivoting
    refreshes = 0
    stalled = 0  # pivots since the objective last rose
    for _ in range(10 * (m + n)):
        rhs = T[:n, -1]
        r = int(np.argmin(rhs))
        if not rhs[r] < -_PIVOT_TOL:  # no infeasible row
            if fresh:
                break
            # Pivoting accumulates rounding: solve the basis again from the
            # data, and go on pivoting if that shows it still infeasible,
            # unless that has happened often enough to blame the rounding.
            T, fresh, refreshes = tableau(basis), True, refreshes + 1
            if refreshes > 3:
                break
            continue
        fresh = False
        # After n pivots without progress, Bland's rule (smallest indices)
        # until the objective rises again, so degenerate pivots cannot cycle.
        # Otherwise Dantzig's rule: the most infeasible row, r above.
        bland = stalled > n
        if bland:
            infeasible = np.flatnonzero(rhs < -_PIVOT_TOL)
            r = int(infeasible[np.argmin(basis[infeasible])])
        row, cost = T[r, :-1], T[n, :-1]
        entering = row < -_PIVOT_TOL * max(1.0, float(np.abs(row).max()))
        entering[basis] = False  # rounding may leave a basic column nonzero
        cols = np.flatnonzero(entering)
        if not cols.size:
            raise GameSolveError(f"no column can enter at row {r} of a {m}x{n} game")
        # Harris: the longest step that keeps every cost above -tolerance,
        # then the largest pivot among the columns that step admits.
        step = np.min((cost[cols] + _PIVOT_TOL) / -row[cols])
        cols = cols[cost[cols] / -row[cols] <= step]
        k = int(cols[0] if bland else cols[np.argmax(-row[cols])])
        # A cost the tolerance let dip below 0 enters at 0: a negative step
        # would lower the objective, and through a tiny pivot, by a lot.
        T[n, k] = max(T[n, k], 0.0)
        objective = T[n, -1]  # minus the objective, which never falls
        T[r] /= T[r, k]
        pivot_col = T[:, k].copy()
        pivot_col[r] = 0.0
        T -= np.outer(pivot_col, T[r])
        basis[r] = k
        stalled = stalled + 1 if T[n, -1] > objective - _PIVOT_TOL else 0
    else:
        raise GameSolveError(f"no optimal basis of a {m}x{n} game within {10 * (m + n)} pivots")
    # Surplus j's cost is the dual z_j; w is read off the rows of basic w.
    z = np.maximum(T[n, m:-1], 0.0)
    in_w = basis < m
    w = np.zeros(m)
    w[basis[in_w]] = np.maximum(T[:n, -1][in_w], 0.0)
    return z / z.sum(), w / w.sum(), basis


@dataclass(frozen=True)
class StepSolution:
    x: np.ndarray  # lengths on the floored simplex
    fun: float  # the LP's optimal t, max_i (A_ub x - b_ub)_i
    y: np.ndarray  # optimal row duals: y >= 0, sum(y) = 1
    basis: Optional[np.ndarray]  # the game's optimal basis, None at a saddle point


def linprog(
    A_ub: np.ndarray, *, b_ub: np.ndarray, floor: float, basis: Optional[np.ndarray] = None
) -> StepSolution:
    """One Dinkelbach step's LP over the floored simplex,

        minimize t  subject to  A_ub l - t <= b_ub,  sum(l) = 1,  l >= floor,

    solved in the library as a matrix game, with no LP package.  Writing
    l = floor + (1 - n floor) mu with mu in the standard simplex gives
    (A_ub l - b_ub)_i = (P mu)_i for P = (1 - n floor) A_ub
    + (floor A_ub 1 - b_ub) 1^T, so the optimal t is the value of the game P
    (see solve_matrix_game, which starts from `basis` when it is usable),
    and every such l also satisfies l <= 1.  t is evaluated at mu itself:
    recovering it from the mapped game's value would lose digits to
    cancellation.  Raises GameSolveError when the game is not solved.
    """
    n = A_ub.shape[1]
    P = (1.0 - n * floor) * A_ub + (floor * A_ub.sum(axis=1) - b_ub)[:, None]
    mu, y, basis = solve_matrix_game(P, basis)
    return StepSolution(
        x=floor + (1.0 - n * floor) * mu, fun=float(np.max(P @ mu)), y=y, basis=basis
    )


# LP steps per minimization.  Convergence is superlinear at an interior
# minimum (about 5 steps); a minimum on the floor can take about 20.
_MAX_STEPS = 32
_GAP = 1e-12  # relative gap between the bounds at which the minimum is settled


def min_displacement_on_simplex(m: GraphMap, floors: Sequence[float]) -> List[SimplexMinReport]:
    """Minimize the maximal candidate stretch of the topological self-map m
    over unit-volume metrics with every edge length at least the floor, at
    each floor of `floors` in turn; one report per floor, in order.

    The objective max_i B_i.l / C_i.l is a min-max linear fractional program,
    solved by the Dinkelbach-type method of Crouzeix, Ferland and Schaible
    (JOTA 47, 1985).  Step k solves one epigraph LP at the current ratio
    lam_k = max_i B_i.l_k / C_i.l_k:

        minimize t  subject to  (B_i - lam_k C_i).l / (C_i.l_k) <= t,
                                sum(l) = 1,  l >= floor,

    and moves to its point.  The LP is solved in the library as a small
    matrix game (see `linprog`), so numpy is all the minimizer needs.  Each
    step after the first starts from the previous step's optimal basis,
    which is mostly still optimal or a pivot or two away.  The LP's row
    duals y give a certified lower bound: a maximum of ratios is at least
    any weighted mediant, so the minimum is at least min (yB).l / (yC).l
    over the floored simplex, which is attained at one of its n vertices.
    The bound holds for any y >= 0, so an inexact LP answer can slow the
    iteration but never falsify a bound it reports.  The iteration stops
    when t >= 0 (l_k is optimal), when the two bounds meet, or when a step
    no longer lowers lam.

    The constraint rows are built once for all the floors, from the
    candidates of m's domain and m's own letter table, `m.direction_image`;
    a candidate with a nullhomotopic image raises StretchIntegrityError.  The
    first floor starts at l_0, the Perron–Frobenius lengths (`pf_eigen`) of
    m's transition matrix M (`transition_matrix`), at which no candidate
    stretches by more than M's spectral radius rho: a loop's image crosses
    each edge at most M times its own crossing counts, and M^T v = rho v.  Each later floor starts from the
    previous floor's last LP basis and at its minimizer, or at that
    minimizer with its pinned edges moved to this floor (a zero length lifts
    to the floor) when that stretches less.  Either start is scaled to unit
    volume and lifted onto the floored simplex, where lengths at or below the
    floor go to the floor, and the lam returned is at most lam_0.  A start at
    the minimizer, such as a train track's PF lengths or the floor vertex
    that a -> a, b -> ab's PF lengths (0, 1) lift to, is usually confirmed by
    the first LP step; the minimizer for a larger floor saves the steps that
    approach it, and a smaller floor still admits it, so a decreasing ladder
    of floors gives a lam that cannot rise (beyond rounding).
    """
    ids = m.domain.graph.edge_ids
    n = len(ids)
    for floor in floors:
        if not 0 < floor < 1 / n:
            raise ValueError(f"floor must lie strictly between 0 and 1/{n}")
    counts = _constraint_rows(m)
    Bm = np.array([r[0] for r in counts], dtype=float)
    Cm = np.array([r[1] for r in counts], dtype=float)
    b_ub = np.zeros(len(Bm))

    def max_ratio(ell: np.ndarray) -> float:
        return float(np.max((Bm @ ell) / (Cm @ ell)))

    def lift(lengths: np.ndarray, floor: float) -> np.ndarray:
        """The start on the floored simplex: its excess over the floor,
        scaled to the volume left above the floor."""
        excess = np.maximum(lengths / lengths.sum() - floor, 0.0)
        return floor + (1.0 - n * floor) * excess / excess.sum()

    lengths = np.array(pf_eigen(transition_matrix(m))[1])
    basis, pinned = None, ()
    reports = []
    for floor in floors:
        # Vertices of the floored simplex: one edge long, every other at the floor.
        vertices = floor + (1.0 - n * floor) * np.eye(n)

        def mediant_bound(y: np.ndarray) -> float:
            return float(np.min((vertices @ (y @ Bm)) / (vertices @ (y @ Cm))))

        ell = lift(lengths, floor)
        lam = max_ratio(ell)
        if pinned:
            # The previous minimizer with its pinned edges moved to this
            # floor, where a floor-pinned minimum moves to; kept only if it
            # stretches less.
            lengths[[ids.index(e) for e in pinned]] = 0.0
            moved = lift(lengths, floor)
            moved_lam = max_ratio(moved)
            if moved_lam < lam:
                ell, lam = moved, moved_lam
        lower = min(lam, mediant_bound(np.ones(len(Bm))))
        trace: List[Tuple[float, float]] = []
        for _ in range(_MAX_STEPS):
            scale = Cm @ ell
            res = linprog((Bm - lam * Cm) / scale[:, None], b_ub=b_ub, floor=floor, basis=basis)
            basis = res.basis
            lower = max(lower, mediant_bound(res.y / scale))
            step_lam = max_ratio(res.x)
            improved = step_lam < lam
            if improved:
                ell, lam = res.x, step_lam
            lower = min(lower, lam)  # only rounding can lift a true bound above lam
            trace.append((lower, lam))
            if res.fun >= 0 or lam - lower <= _GAP * lam or not improved:
                break
        tol = max(1e-7, 1e-3 * floor)
        pinned = tuple(e for i, e in enumerate(ids) if ell[i] <= floor + tol)
        reports.append(SimplexMinReport(
            metric=Metric({e: float(ell[i]) for i, e in enumerate(ids)}),
            lam=lam,
            lower=lower,
            floor=floor,
            trace=tuple(trace),
            pinned=pinned,
        ))
        lengths = ell.copy()  # the next floor zeroes the pinned edges in place
    return reports


# -- trichotomy classifier ----------------------------------------------------------


@dataclass(frozen=True)
class Elliptic:
    order: int
    certificate: FiniteOrderCertificate
    kind: ClassVar[str] = "elliptic"


@dataclass(frozen=True)
class Hyperbolic:
    lam: float
    certificate: TrainTrackCertificate
    loop: EdgePath  # a legal loop of the certificate's train track structure
    bracket: Tuple[Fraction, Fraction]  # exact (lo, hi) around lam and Min(phi)
    simplex: SimplexMinReport  # evidence only: floored, so it may exceed lam
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

_CLASSIFY_FLOOR = 1e-6
_SWEEP_FLOORS = (1e-2, 1e-3, 1e-4)  # the parabolic_suspect floor sweep


def classify(phi: Automorphism) -> Classification:
    """Sort an outer automorphism into the displacement trichotomy.

    Finite-order certificate -> elliptic.  Train track certificate ->
    hyperbolic iff the exact Collatz–Wielandt bracket [lo, hi] of its growth
    rate lambda at the PF metric has lo > 1: the PF metric's displacement is
    at most hi, and a legal loop, whose iterates grow like lambda^k, bounds
    the displacement below by lambda >= lo everywhere.  No LP, floor or
    tolerance decides it; the floored minimization from the map's PF
    lengths, which are the certificate's metric, is evidence only.  Reduction certificate -> parabolic suspect, with the
    invariant chain and a floor sweep showing the boundary-pinned minima,
    one minimization over the ladder of floors: the first floor starts at
    the map's PF lengths, and each later floor at the previous floor's
    minimizer, so the sweep lambda cannot rise (beyond rounding).  Anything
    else is inconclusive.
    """
    cert = find_train_track(phi)
    if isinstance(cert, FiniteOrderCertificate):
        return Elliptic(order=cert.order, certificate=cert)
    if isinstance(cert, TrainTrackCertificate):
        m = cert.graph_map
        loop = find_legal_loop(cert.structure)
        lo, hi = growth_bracket(transition_matrix(m), m.domain.metric)
        if not lo > 1:
            reason = f"train track found but its growth bracket [{float(lo)!r}, {float(hi)!r}]"
            return Inconclusive(reason + " is not above 1", cert)
        (rep,) = min_displacement_on_simplex(m, (_CLASSIFY_FLOOR,))
        return Hyperbolic(cert.lam, cert, loop=loop, bracket=(lo, hi), simplex=rep)
    if isinstance(cert, ReductionCertificate):
        reports = min_displacement_on_simplex(cert.graph_map, _SWEEP_FLOORS)
        sweep = tuple((rep.floor, rep.lam, rep.boundary_flag) for rep in reports)
        return ParabolicSuspect(invariant_chain(cert.matrix), sweep, certificate=cert)
    return Inconclusive(reason=cert.reason, certificate=cert)
