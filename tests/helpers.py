"""Shared test utilities: the train tracks of a fixed set of seeded draws,
small-graph enumeration, loop-ratio oracles, a one-floor call of the
displacement minimizer and the bracketing check of its trace, the exact
spectral radius test, the integer characteristic polynomial, a transition
matrix's diagonal blocks and the reference invariant chain, the reference
finite order on a map's own images, the reference inverse by rescanning
folds, order-3 maps with long images, and ways to build what the library's
constructors would refuse.

These are deliberately independent of the library's candidate machinery so
they can serve as oracles for it: the loop enumeration below is a plain
breadth-first walk over crossing-count vectors, not a candidate search.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from fractions import Fraction
from math import lcm
from typing import Dict, List, Sequence, Set, Tuple

import numpy as np
import pytest

from outerspace import train_track_algo, words
from outerspace.graph_core import EdgePath, Graph, direction_key, is_forest
from outerspace.graph_map import GraphMap, difference_of_markings
from outerspace.lipschitz_metric import SimplexMinReport, min_displacement_on_simplex, sigma
from outerspace.marked_metric import (
    Automorphism,
    MarkingError,
    Metric,
    OuterSpacePoint,
    random_automorphism,
    uniform_metric,
)

# The stretch factor of EXPANDING, the root of x^2 - 3x + 1.
GOLDEN_SQ = (3 + math.sqrt(5)) / 2
EXPANDING = "a -> ab; b -> bab"
PERMUTED = "a -> B; b -> C; c -> A"  # order 6, a graph automorphism of the rose
REDUCIBLE = "a -> a; b -> ab"
RANK4_REDUCIBLE = "a -> ab; b -> bab; c -> cad; d -> dcad"  # two golden diagonal blocks
# fold-survey's seed-0 input r4#36, whose fold path turns on an exact tie of
# two slide trials.
R4_36 = "a->caDBaD; b->aCbdACbdACa; c->caDBaDaD; d->CbdACbdACa"
# Rank-4 map 39 of the fold-survey list at seed 3: a reduction whose
# transition matrix has spectral radius exactly 1, and whose fold loop
# chooses between two slides of spectral radius 1.
R4_39 = "a->AbC; b->DA; c->A; d->Ac"
# The order-105 permutation with cycles 3, 5, 7 and 1 followed by ten
# transvections x -> x[y, z]: order 105 on homology, infinite order in
# Out(F_16), reducible in round 0.
TRANSVECTED_105 = (
    "a->b; b->cebEB; c->alhjbJBLbjBJHonON; d->ejnJN; e->f; f->gbhjbJBjBJH; g->hjbJB; h->d; "
    "i->j; j->k; k->l; l->mgjGJ; m->n; n->o; o->ilmLM; "
    "p->pkgbhjbJBjBJHKhjbJbjBJHBGmgjGJhjbJBjgJGMbjBJH"
)


@functools.lru_cache(maxsize=None)
def train_track_draws() -> Tuple[Tuple[Automorphism, train_track_algo.TrainTrackCertificate], ...]:
    """(phi, certificate) of the 45 train tracks among 40 draws each of
    random_automorphism(r, 12, Random(11)), r = 3, 4, 5, in draw order."""
    out = []
    for rank in (3, 4, 5):
        rng = random.Random(11)
        for _ in range(40):
            phi = random_automorphism(rank, 12, rng)
            cert = train_track_algo.find_train_track(phi)
            if isinstance(cert, train_track_algo.TrainTrackCertificate):
                out.append((phi, cert))
    return tuple(out)


def distance(x: OuterSpacePoint, y: OuterSpacePoint) -> float:
    """The stretch distance log sigma(x, y) of the difference of markings;
    asymmetric."""
    return sigma(x, y, difference_of_markings(x, y)).log_sigma


def minimize_at(m: GraphMap, floor: float) -> SimplexMinReport:
    """The displacement minimizer's report on the self-map m at one floor,
    started from the map's PF lengths."""
    (rep,) = min_displacement_on_simplex(m, (floor,))
    return rep


def unchecked(cls, *args, **kwargs):
    """An OuterSpacePoint or GraphMap built without its validation, to show
    what the code that receives such a value checks itself."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cls, "_validate", lambda self, *a: None)
        return cls(*args, **kwargs)


def word_level_order(phi: Automorphism):
    """Order of phi in Out(F_n) when it is finite, else None, read on phi's
    own images: the order d of its abelianization (finite_order_check) is
    the only candidate, and phi^d is composed from the images and tested.
    The reference for find_train_track's finite-order exits; composing long
    images is quadratic in their length."""
    d = train_track_algo.finite_order_check(phi)
    if d is None:
        return None
    acc = phi.images
    for _ in range(d - 1):
        acc = words.compose(phi.images, acc)
    return d if words.is_conjugate_identity(acc) else None


@functools.lru_cache(maxsize=None)
def long_conjugate(steps: int) -> Automorphism:
    """psi sigma psi^-1 for sigma = a->b; b->c; c->a, of order 3, and psi =
    random_automorphism(3, steps, Random(1)), built with psi's tracked
    inverse; its images total 1,069 letters at 30 steps, 4,009 at 40 and
    17,139 at 50."""
    sigma = Automorphism.from_text("a->b; b->c; c->a")
    psi = random_automorphism(3, steps, random.Random(1))

    def conj(images):
        return words.compose(psi.images, words.compose(images, psi.inverse_images))

    return Automorphism(conj(sigma.images), inverse=conj(sigma.inverse_images))


def invert_images_by_rescan(images: Sequence[tuple]) -> tuple:
    """Images of the inverse of the automorphism k -> images[k-1], by the
    fold that words.invert_images replaced, kept as its reference: after
    each fold it rescans every edge for the next, and it rewrites the
    carried word of every edge at the merged vertex.  Then it prunes hanging
    trees and normalizes away one common conjugator.  Raises
    words.NotBasisError when the images do not form a basis.
    """
    n = len(images)
    imgs = [words.reduce_word(w) for w in images]
    if any(not w for w in imgs) or any(abs(x) > n for w in imgs for x in w):
        raise words.NotBasisError("images must be nonempty words in the ambient letters")

    # edge record: [init, term, label>0, h-word]; read init->term spells +label
    edges: dict = {}
    next_v = 1
    next_e = 0
    for i, w in enumerate(imgs, start=1):
        cur = 0
        for j, letter in enumerate(w):
            nxt = 0 if j == len(w) - 1 else next_v
            if j < len(w) - 1:
                next_v += 1
            h: tuple = (i,) if j == 0 else ()
            if letter > 0:
                edges[next_e] = [cur, nxt, letter, h]
            else:
                edges[next_e] = [nxt, cur, -letter, words.invert_word(h)]
            next_e += 1
            cur = nxt

    def find_fold():
        germs: dict = {}
        for e in sorted(edges):
            u, v, lab, _ = edges[e]
            for key in ((u, lab), (v, -lab)):
                if key in germs:
                    return germs[key], e, key
                germs[key] = e
        return None

    while True:
        hit = find_fold()
        if hit is None:
            break
        e1, e2, (z, slab) = hit

        def read(e):
            u, v, lab, h = edges[e]
            if slab > 0:  # read from init
                return v, h
            return u, words.invert_word(h)

        far1, h1 = read(e1)
        far2, h2 = read(e2)
        if far1 == far2:
            raise words.NotBasisError("fold collapses a loop: images are not a basis")
        if far2 == 0 or (far1 != 0 and far2 < far1):
            far1, far2 = far2, far1
            h1, h2 = h2, h1
        # far1 survives; omega carries the detour far1 -> z -> far2
        omega = words.concat(words.invert_word(h1), h2)
        del edges[e2]
        for e in edges:
            u, v, lab, h = edges[e]
            if u == far2:
                h = words.concat(omega, h)
                u = far1
            if v == far2:
                h = words.concat(h, words.invert_word(omega))
                v = far1
            edges[e] = [u, v, lab, h]

    # prune hanging trees away from the basepoint
    changed = True
    while changed:
        changed = False
        degree: dict = {}
        for u, v, _, _ in edges.values():
            degree[u] = degree.get(u, 0) + 1
            degree[v] = degree.get(v, 0) + 1
        for e in sorted(edges):
            u, v, _, _ = edges[e]
            if (degree.get(u, 0) == 1 and u != 0) or (degree.get(v, 0) == 1 and v != 0):
                del edges[e]
                changed = True
                break

    loops = {}
    for u, v, lab, h in edges.values():
        if u != 0 or v != 0 or lab in loops:
            raise words.NotBasisError("folded graph is not the standard rose")
        loops[lab] = h
    if sorted(loops) != list(range(1, n + 1)):
        raise words.NotBasisError("folded graph is not the standard rose")

    psi = [loops[k] for k in range(1, n + 1)]
    g = words.common_conjugator(words.compose(psi, imgs))
    if g is None:
        raise words.NotBasisError("inverse candidate fails the conjugacy check")
    gi = words.invert_word(g)
    psi = tuple(words.concat(gi, p, g) for p in psi)
    if words.compose(psi, imgs) != words.identity_images(n):
        raise words.NotBasisError("inverse verification failed")
    return psi


def state_of(m: GraphMap) -> train_track_algo._MapState:
    """The fold loop's surgery state of a self-map, which need not be on the
    rose; its twist is read through the two inverse markings."""
    twist = Automorphism(
        [m.domain.inverse_marking_word(p.edges) for p in m.codomain.marking],
        inverse=[m.codomain.inverse_marking_word(p.edges) for p in m.domain.marking],
    )
    st = train_track_algo._MapState(twist)
    g = m.domain.graph
    st.endpoints = {e: g.endpoints(e) for e in g.edge_ids}
    st.vertices = set(g.vertices)
    st.images = {e: m.edge_image[e].edges for e in g.edge_ids}
    st.vertex_image = dict(m.vertex_image)
    st.dom_marking = [p.edges for p in m.domain.marking]
    st.inv = m.domain.inverse_marking()
    st.basepoint = m.domain.basepoint
    st.next_vertex = max(st.vertices) + 1
    st.next_edge = max(st.endpoints) + 1
    return st


def state_map(st: train_track_algo._MapState) -> GraphMap:
    """A fold state's map at the uniform metric, with every point and marking check."""
    g = st.graph()
    return st.to_graph_map(g, uniform_metric(g.edge_ids))


def connected_core_graphs(max_edges: int) -> List[Graph]:
    """Every connected graph with all valences >= 2 and at most `max_edges`
    edges, one representative per isomorphism class (loops and parallel
    edges allowed).  Vertices are 1..V and edge ids 1..E."""
    out: List[Graph] = []
    for n_edges in range(1, max_edges + 1):
        for n_vertices in range(1, n_edges + 1):
            pairs = [
                (u, v) for u in range(n_vertices) for v in range(u, n_vertices)
            ]
            seen: Set[Tuple[Tuple[int, int], ...]] = set()
            for combo in itertools.combinations_with_replacement(pairs, n_edges):
                if not (_is_connected(n_vertices, combo) and _is_core(n_vertices, combo)):
                    continue
                canon = _canonical_edges(n_vertices, combo)
                if canon in seen:
                    continue
                seen.add(canon)
                out.append(
                    Graph(
                        range(1, n_vertices + 1),
                        {i + 1: (u + 1, v + 1) for i, (u, v) in enumerate(combo)},
                    )
                )
    return out


def _is_connected(n: int, edges: Sequence[Tuple[int, int]]) -> bool:
    adj: Dict[int, Set[int]] = {i: set() for i in range(n)}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    seen = {0}
    stack = [0]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == n


def _is_core(n: int, edges: Sequence[Tuple[int, int]]) -> bool:
    valence = [0] * n
    for u, v in edges:
        valence[u] += 1
        valence[v] += 1
    return all(x >= 2 for x in valence)


def _canonical_edges(n: int, edges: Sequence[Tuple[int, int]]):
    return min(
        tuple(sorted(tuple(sorted((p[u], p[v]))) for u, v in edges))
        for p in itertools.permutations(range(n))
    )


def spanning_tree_point(graph: Graph, metric: Metric, basepoint: int = 1) -> OuterSpacePoint:
    """Marked point whose marking loops are cotree edges closed up through a
    breadth-first spanning tree at `basepoint`; the inverse marking kills
    tree edges, as `graph_point`'s does."""
    into: Dict[int, int] = {}  # vertex -> tree direction entering it
    order = [basepoint]
    reached = {basepoint}
    tree_edges: Set[int] = set()
    i = 0
    while i < len(order):
        v = order[i]
        i += 1
        for d in sorted(graph.directions_at(v), key=direction_key):
            w = graph.term(d)
            if w not in reached:
                reached.add(w)
                into[w] = d
                tree_edges.add(abs(d))
                order.append(w)

    def from_base(v: int) -> List[int]:
        back: List[int] = []
        while v != basepoint:
            d = into[v]
            back.append(d)
            v = graph.init(d)
        return back[::-1]

    marking = []
    inverse: Dict[int, Tuple[int, ...]] = {e: () for e in tree_edges}
    for e in graph.edge_ids:
        if e in tree_edges:
            continue
        u, v = graph.endpoints(e)
        loop = from_base(u) + [e] + [-d for d in reversed(from_base(v))]
        marking.append(EdgePath(tuple(loop)))
        inverse[e] = (len(marking),)
    return OuterSpacePoint(graph, metric, marking, basepoint, inverse_marking=inverse)


def with_metric(x: OuterSpacePoint, metric: Metric) -> OuterSpacePoint:
    """x's marked graph with other edge lengths, built by the checked point
    constructor; x's inverse marking is carried over and checked again."""
    return OuterSpacePoint(x.graph, metric, x.marking, x.basepoint, inverse_marking=x.inverse_marking())


def identity_map_between(x: OuterSpacePoint, y: OuterSpacePoint) -> GraphMap:
    """Simplicial identity between two metrics on the same marked graph."""
    return GraphMap(
        x,
        y,
        {v: v for v in x.graph.vertices},
        {e: (e,) for e in x.graph.edge_ids},
    )


def cycle_permutation(cycles: Sequence[int]) -> Automorphism:
    """The permutation of the generators a, b, c, ... with cycles of the
    given lengths, taken in order: (3, 1) is a->b; b->c; c->a; d->d."""
    clauses, start = [], 0
    for n in cycles:
        clauses += [f"{chr(97 + start + i)}->{chr(97 + start + (i + 1) % n)}" for i in range(n)]
        start += n
    return Automorphism.from_text("; ".join(clauses))


def marking_conjugator_by_loops(m: GraphMap) -> tuple:
    """The conjugator of GraphMap.check_marking_compatibility, found loop by
    loop: map each domain marking loop, tighten its image, read the image
    back through the codomain's inverse marking, and solve for one
    conjugator.  Raises MarkingError when there is none."""
    vs = [m.codomain.inverse_marking_word(m.map_path(p).edges) for p in m.domain.marking]
    g = words.common_conjugator(vs)
    if g is None:
        raise MarkingError("map does not commute with the markings up to homotopy")
    return g


def immersed_loop_vectors(graph: Graph, max_length: int) -> Tuple[Tuple[int, ...], ...]:
    """Edge-crossing count vectors of all immersed closed loops crossing at
    most `max_length` edges, indexed by `graph.edge_ids` order.

    Every loop is rotated to start at its smallest crossed direction, so each
    class is explored once; counts are rotation-invariant anyway."""
    ids = graph.edge_ids
    pos = {e: i for i, e in enumerate(ids)}
    all_dirs = sorted(
        {d for v in graph.vertices for d in graph.directions_at(v)}, key=direction_key
    )
    found: Set[Tuple[int, ...]] = set()
    for d0 in all_dirs:
        min_key = direction_key(d0)
        base = graph.init(d0)
        first = [0] * len(ids)
        first[pos[abs(d0)]] = 1
        layer = {(d0, tuple(first))}
        seen = set(layer)
        while layer:
            grown: Set[Tuple[int, Tuple[int, ...]]] = set()
            for cur, vec in layer:
                if graph.term(cur) == base and cur != -d0:
                    found.add(vec)
                if sum(vec) == max_length:
                    continue
                for d in graph.directions_at(graph.term(cur)):
                    if d == -cur or direction_key(d) < min_key:
                        continue
                    nxt = list(vec)
                    nxt[pos[abs(d)]] += 1
                    state = (d, tuple(nxt))
                    if state not in seen:
                        seen.add(state)
                        grown.add(state)
            layer = grown
    return tuple(sorted(found))


def exact_max_ratio(
    vectors: Sequence[Tuple[int, ...]],
    x_metric: Metric,
    y_metric: Metric,
    ids: Sequence[int],
) -> Fraction:
    """Exact max over count vectors c of (c . y-lengths) / (c . x-lengths).

    Lengths are scaled to integers so the search runs in int64, then the
    winner is re-checked by cross-multiplication and returned as a Fraction.
    """
    num, s_num = _scaled_integer_lengths(y_metric, ids)
    den, s_den = _scaled_integer_lengths(x_metric, ids)
    mat = np.asarray(vectors, dtype=np.int64)
    top = mat @ np.asarray(num, dtype=np.int64)
    bot = mat @ np.asarray(den, dtype=np.int64)
    best = int(np.argmax(top / bot.astype(float)))
    for i in range(len(vectors)):
        if int(top[i]) * int(bot[best]) > int(top[best]) * int(bot[i]):
            best = i
    return Fraction(int(top[best]) * s_den, int(bot[best]) * s_num)


def _scaled_integer_lengths(metric: Metric, ids: Sequence[int]) -> Tuple[List[int], int]:
    fracs = [Fraction(metric.length(e)) for e in ids]
    scale = lcm(*(f.denominator for f in fracs))
    return [int(f * scale) for f in fracs], scale


def assert_bracketing_trace(trace: Sequence[Sequence[float]], cap: int) -> None:
    """A minimizer trace of (lower, upper) pairs, one per LP step: at most
    `cap` steps, upper bounds never rise, lower bounds (a running maximum)
    never fall, and lower <= upper at every step."""
    assert 1 <= len(trace) <= cap
    los = [lo for lo, _ in trace]
    his = [hi for _, hi in trace]
    assert los == sorted(los)
    assert his == sorted(his, reverse=True)
    assert all(lo <= hi for lo, hi in trace)


def exceeds_spectral_radius(rows: Sequence[Sequence[int]], t: Fraction) -> bool:
    """Whether t exceeds the spectral radius of a nonnegative matrix, decided
    exactly and without eigenvalues: tI - M has no positive off-diagonal
    entry, so it is a nonsingular M-matrix, which happens iff t > rho(M), iff
    all its leading principal minors are positive, that is, iff Gaussian
    elimination without pivoting meets only positive pivots."""
    n = len(rows)
    A = [[(t if i == j else 0) - Fraction(rows[i][j]) for j in range(n)] for i in range(n)]
    for k in range(n):
        if A[k][k] <= 0:
            return False
        for i in range(k + 1, n):
            f = A[i][k] / A[k][k]
            if f:
                for j in range(k, n):
                    A[i][j] -= f * A[k][j]
    return True


def characteristic_polynomial(rows: Sequence[Sequence[int]]) -> Tuple[int, ...]:
    """The coefficients of det(xI - A) of an integer matrix A, leading first,
    by Faddeev–LeVerrier: M_k = A M_(k-1) + c_(n-k+1) I from M_0 = 0, and
    c_(n-k) = -tr(A M_k) / k, each division exact.  Two matrices with equal
    polynomials have equal eigenvalues, so equal spectral radii."""
    n = len(rows)
    coeffs = [1]
    AM = [[0] * n for _ in range(n)]
    for k in range(1, n + 1):
        M = [[x + (coeffs[-1] if i == j else 0) for j, x in enumerate(r)] for i, r in enumerate(AM)]
        AM = [[sum(a * M[t][j] for t, a in enumerate(r)) for j in range(n)] for r in rows]
        coeffs.append(-sum(AM[i][i] for i in range(n)) // k)
    return tuple(coeffs)


def diagonal_blocks(M: train_track_algo.TransitionMatrix) -> Dict[Tuple[int, ...], tuple]:
    """Each stratum of M, the edges that share one closure, with its
    diagonal block of M."""
    strata: Dict[frozenset, List[int]] = {}
    for e, closure in zip(M.edge_ids, M.closures):
        strata.setdefault(closure, []).append(e)
    return {tuple(s): submatrix(M, s).rows for s in strata.values()}


def submatrix(M: train_track_algo.TransitionMatrix, subset) -> train_track_algo.TransitionMatrix:
    """The rows and columns of M that belong to the edges of subset."""
    ids = tuple(sorted(subset))
    pos = [M.edge_ids.index(e) for e in ids]
    rows = tuple(tuple(M.rows[i][j] for j in pos) for i in pos)
    return train_track_algo.TransitionMatrix(ids, rows, M.graph)


def reference_closed_class(M: train_track_algo.TransitionMatrix):
    """The preferred proper invariant class, by a reachability closure from
    every edge: the lexicographically least proper closure that is not a
    forest, else the least proper one; None iff M is irreducible."""
    n = len(M.edge_ids)
    succ = [[i for i in range(n) if M.rows[i][j] > 0] for j in range(n)]
    closures = set()
    for v in range(n):
        seen = {v}
        stack = [v]
        while stack:
            for k in succ[stack.pop()]:
                if k not in seen:
                    seen.add(k)
                    stack.append(k)
        if len(seen) < n:
            closures.add(frozenset(M.edge_ids[i] for i in seen))
    if not closures:
        return None
    ordered = sorted(closures, key=lambda s: tuple(sorted(s)))
    return next((s for s in ordered if not is_forest(M.graph, s)), ordered[0])


def reference_invariant_chain(M: train_track_algo.TransitionMatrix) -> tuple:
    """The nested invariant classes of M: the preferred class of M, then that
    of its submatrix on the class, and so on down to an irreducible one."""
    chain = []
    sub = reference_closed_class(M)
    while sub is not None:
        chain.append(sub)
        sub = reference_closed_class(submatrix(M, sub))
    return tuple(chain)
