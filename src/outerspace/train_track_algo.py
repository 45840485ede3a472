"""Fold-driven search for train track representatives of outer automorphisms.

Starting from the rose realization of an automorphism, the search loop
normalizes the current self-map, inspects its transition matrix, and either
certifies the outcome (train track structure, invariant subgraph, finite
order) or folds an illegal turn and repeats.  The whole search runs on one
mutable surgery state, started directly from phi's images on the rose, that
keeps the graph, the edge images, the domain marking and its inverse marking
synchronized, and no metric; ``normalize``, ``fold`` and the forest collapse
rewrite it in place.  Every move that replaces edges by paths, the merge of
the two edges at a valence-two vertex included, does it in one
substitute-and-reduce pass over the edge images and marking loops that cross
a replaced edge; every path is reduced when a move starts, so no other path
can cancel.  The pass reads a ``words.letter_table`` that lists every edge
of the graph, so a path that crosses an edge outside it raises.  A
transition matrix's strata come from one pass, ``TransitionMatrix.closures``,
and every spectral radius (over the strata) and PF vector from one dense
eigen-solve, ``pf_eigen``.  Each move updates the inverse marking exactly
(a Stallings fold has an exact effect on it), so nothing is ever inverted
from scratch.  No start map is built and a round builds no ``GraphMap``:
only a returned certificate's map is built, with every point and marking
check, so a bad round shows up at the end rather than where it happened.
A state that represents no automorphism raises ``InvalidMapError``; every
finite-order certificate is built by ``_finite_order_exit``, which computes
an order once, on homology, and tests it on the state's own short words.

Besides ``max_iters``, the loop ends only on a certificate or on a repeated
state, which proves a cycle: moves read ids only through their order (sorted
scans, ``_MapState.incidence``'s directions by edge id, ``v < u`` in
``collapse_edges``, slide trials on matrices in id order) and a new id is the
largest live one plus 1, so if rounds s < r have equal ``_MapState.key``s,
rounds r, r+1, ... repeat rounds s, s+1, ... forever.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import ClassVar, Dict, FrozenSet, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from . import words
from .graph_core import (
    EdgePath,
    Graph,
    is_forest,
    turn,
)
from .marked_metric import (
    Automorphism,
    Metric,
    OuterSpacePoint,
    act,
    graph_point,
    uniform_metric,
)
from .graph_map import (
    DegenerateImageError,
    GraphMap,
    TrainTrackStructure,
    gates_from_derivative,
)
from .words import Word

_ORDER_LETTER_BUDGET = 20_000


class InvalidMapError(RuntimeError):
    """Graph surgery reached a state that cannot represent an automorphism."""


# -- transition matrices -------------------------------------------------------


@dataclass(frozen=True)
class TransitionMatrix:
    """rows[i][j] counts crossings of edge edge_ids[i] by the image of edge_ids[j]."""

    edge_ids: Tuple[int, ...]
    rows: Tuple[Tuple[int, ...], ...]
    graph: Graph

    @cached_property
    def closures(self) -> Tuple[FrozenSet[int], ...]:
        """The closure of each edge, in edge order, under the arcs j -> i
        where the image of edge j crosses edge i, by Warshall's algorithm on
        bitmasks: the library's one strata pass.  Two edges share a closure
        iff they lie in one strong component, a stratum (a diagonal block of
        the Frobenius normal form); a closure is a stratum and those below."""
        ids, n = self.edge_ids, len(self.edge_ids)
        reach = [sum(1 << i for i, x in enumerate(col) if x) | 1 << j
                 for j, col in enumerate(zip(*self.rows))]
        for k in range(n):  # bit i of reach[j]: edge j reaches edge i
            for j in range(n):
                if reach[j] >> k & 1:
                    reach[j] |= reach[k]
        if reach.count((1 << n) - 1) == n:  # irreducible: one closure, built once
            return (frozenset(ids),) * n
        return tuple(frozenset(e for i, e in enumerate(ids) if r >> i & 1) for r in reach)


def transition_matrix(m: GraphMap) -> TransitionMatrix:
    """Unoriented crossing counts of each edge by each edge image."""
    return _crossing_counts(m.domain.graph, m.direction_image)


def _crossing_counts(g: Graph, images: Mapping[int, Sequence[int]]) -> TransitionMatrix:
    ids = g.edge_ids
    columns = [words.letter_counts(ids, images[e]) for e in ids]
    return TransitionMatrix(ids, tuple(zip(*columns)), g)


def invariant_chain(M: TransitionMatrix) -> Tuple[FrozenSet[int], ...]:
    """M's nested invariant edge classes: each is the preferred closure inside
    the one before, the lexicographically least proper one that is not a
    forest, else the least proper one.  Empty iff M is irreducible."""
    proper = sorted(set(M.closures) - {frozenset(M.edge_ids)}, key=lambda s: tuple(sorted(s)))
    chain = []
    while proper:
        chain.append(next((s for s in proper if not is_forest(M.graph, s)), proper[0]))
        proper = [s for s in proper if s < chain[-1]]
    return tuple(chain)


def closed_class(M: TransitionMatrix) -> Optional[FrozenSet[int]]:
    """The first class of invariant_chain(M), or None iff M is irreducible."""
    return next(iter(invariant_chain(M)), None)


def spectral_radius(M: TransitionMatrix) -> float:
    """rho(M), the largest PF eigenvalue over M's strata, each simple in its
    block: pf_eigen of M with every arc j -> i between two strata (j not in
    the closure of i) set to 0.  An irreducible M has no such arc."""
    rows = tuple(tuple(x if e in cl else 0 for e, x in zip(M.edge_ids, r))
                 for cl, r in zip(M.closures, M.rows))
    return pf_eigen(TransitionMatrix(M.edge_ids, rows, M.graph))[0]


def pf_eigen(M: TransitionMatrix) -> Tuple[float, Tuple[float, ...]]:
    """Spectral radius rho of a nonnegative matrix and its left eigenvector
    (edge lengths), made nonnegative and sum-normalized, by the library's one
    dense eigen-solve.

    rho is an eigenvalue of largest real part, so periodic matrices need no
    special case.  It has a nonnegative eigenvector, positive and unique up
    to scale when the matrix is irreducible; when its eigenspace has more
    than one dimension the solver may return a mixed-sign vector, whose
    absolute values need not be an eigenvector.  A reducible matrix's rho is
    read on its strata, by spectral_radius.  Zero columns are allowed.
    """
    A = np.array(M.rows, dtype=float)
    if A.size == 0:
        raise ValueError("empty matrix")
    vals, vecs = np.linalg.eig(A.T)
    i = np.argmax(vals.real)
    v = np.abs(vecs[:, i].real)
    return float(vals[i].real), tuple((v / v.sum()).tolist())


def growth_bracket(M: TransitionMatrix, metric: Metric) -> Tuple[Fraction, Fraction]:
    """Exact bounds lo <= lambda <= hi on M's spectral radius (Collatz–Wielandt):
    the least and greatest edge slopes (M^T v)_j / v_j at the metric's lengths
    v, read as the rationals they denote; hi is the map's Lipschitz constant."""
    fracs = [Fraction(metric.length(e)) for e in M.edge_ids]
    scale = math.lcm(*(f.denominator for f in fracs))
    v = [int(f * scale) for f in fracs]  # integer arithmetic from here on
    slopes = [Fraction(sum(r[j] * vi for r, vi in zip(M.rows, v)), vj) for j, vj in enumerate(v)]
    return min(slopes), max(slopes)


# -- train track test ----------------------------------------------------------


def _first_illegal_image_turn(st: _MapState, s: TrainTrackStructure) -> Optional[Tuple[int, int]]:
    for _, path in sorted(st.images.items()):
        for a, b in zip(path, path[1:]):
            t = turn(-a, b)
            if not s.is_legal_turn(t):
                return t
    return None


# -- mutable surgery state -----------------------------------------------------


class _MapState:
    """Graph, edge images, domain marking and its inverse under joint rewriting.

    Moves rewrite paths by edge substitution and free reduction, which commute
    with composing marking loops, so the codomain's marking stays the domain's
    precomposed with `twist` (phi from the rose, with its inverse); a
    certificate's map builds it.  Every edge image and marking loop is
    reduced between moves.  `rewrite_all` is the one substitution: it
    reduces what it rewrites in the same pass, its letter table lists every
    edge of the graph, and every move but the slide goes through it, the
    merge at a valence-two vertex too.  A slide extends images and reduces
    just those.  `inv` is the domain's inverse marking (edge -> word in the
    generators), and every move updates it exactly, so a certificate's
    domain and codomain are checked by substitution alone.
    One state is rewritten for the whole run.  Each fact is stored once:
    the vertices are the keys of `vertex_image`, and a move's new edge or
    vertex ids start at the largest live id plus 1, read when the move
    starts; so the edge-keyed dicts stay in edge order.  `incidence` reads
    every vertex's directions from `endpoints` in one pass.
    """

    def __init__(self, phi: Automorphism):
        """The state of phi's self-map of the rose with the identity marking,
        built from phi's images, with phi as its twist."""
        ids = range(1, phi.rank + 1)
        self.endpoints: Dict[int, Tuple[int, int]] = {e: (0, 0) for e in ids}
        self.images: Dict[int, Sequence[int]] = dict(zip(ids, phi.images))
        self.vertex_image: Dict[int, int] = {0: 0}
        self.dom_marking: List[Sequence[int]] = [(e,) for e in ids]
        self.inv: Dict[int, Word] = {e: (e,) for e in ids}
        self.twist = phi
        self.basepoint = 0

    def finish(self) -> None:
        """End a move: an edge must be left.  New ids need no upkeep here:
        a move reads them past the largest live ones, so trace lines and
        pinned certificates, which print ids, do not depend on dropped ones."""
        if not self.endpoints:
            raise InvalidMapError("graph has no edges left")

    def copy(self) -> "_MapState":
        """A state whose containers can be rewritten without touching this one."""
        new = object.__new__(_MapState)
        new.__dict__ = {k: v.copy() if isinstance(v, (dict, set, list)) else v
                        for k, v in self.__dict__.items()}
        return new

    def graph(self) -> Graph:
        return Graph(self.vertex_image, dict(self.endpoints))

    def key(self) -> tuple:
        """The basepoint, endpoints, edge images and vertex images, with edges
        renamed 1..E and vertices 0..V-1 in id order."""
        e_no = {d: i if d > 0 else -i for i, e in enumerate(self.endpoints, 1) for d in (e, -e)}
        v_no = {v: i for i, v in enumerate(sorted(self.vertex_image))}
        return (v_no[self.basepoint],
                tuple((v_no[u], v_no[v]) for u, v in self.endpoints.values()),
                tuple(tuple(map(e_no.__getitem__, p)) for p in self.images.values()),
                tuple(v_no[self.vertex_image[v]] for v in v_no))

    # -- bookkeeping -------------------------------------------------------

    def incidence(self) -> Dict[int, List[int]]:
        """Each vertex's directions in direction_key order, from one pass
        over the edges in id order."""
        dirs: Dict[int, List[int]] = {v: [] for v in self.vertex_image}
        for e, (u, v) in self.endpoints.items():
            dirs[u].append(e)
            dirs[v].append(-e)
        return dirs

    def init(self, d: int) -> int:
        u, v = self.endpoints[abs(d)]
        return u if d > 0 else v

    def term(self, d: int) -> int:
        u, v = self.endpoints[abs(d)]
        return v if d > 0 else u

    def image_of(self, d: int) -> List[int]:
        img = self.images[abs(d)]
        return list(img) if d > 0 else [-x for x in reversed(img)]

    def derivative(self, d: int) -> int:
        img = self.images[abs(d)]
        if not img:
            raise DegenerateImageError(f"direction {d} has a point image")
        return img[0] if d > 0 else -img[-1]

    def rewrite_all(self, sub: Mapping[int, Sequence[int]]) -> dict:
        """Substitute the reduced path sub[e] for each key edge e, and freely
        reduce, in one pass over each edge image and marking loop that
        crosses a key; returns the letter table it used.  The table lists
        every edge of the graph, each other edge standing for itself, so a
        rewritten path that crosses an edge outside the graph raises
        KeyError."""
        table = words.letter_table({**{e: (e,) for e in self.endpoints}, **sub})
        keys = {d for e in sub for d in (e, -e)}
        for e, p in self.images.items():
            if not keys.isdisjoint(p):
                self.images[e] = words.apply_table(table, p)
        self.dom_marking = [p if keys.isdisjoint(p) else words.apply_table(table, p)
                            for p in self.dom_marking]
        return table

    def drop_edge(self, e: int) -> Tuple[Sequence[int], Tuple[int, int], Word]:
        """Remove edge e: its image, endpoints and inverse-marking word."""
        return self.images.pop(e), self.endpoints.pop(e), self.inv.pop(e)

    def inv_of(self, d: int) -> Word:
        w = self.inv[abs(d)]
        return w if d > 0 else words.invert_word(w)

    def _merge_vertex(self, drop: int, keep: int, c: Word) -> None:
        """Merge vertex drop into keep; c is the word of a path from keep to
        drop, which edges at drop absorb so every loop keeps its word.
        Callers pass two distinct vertices, and drop is not the basepoint."""
        c_inv = words.invert_word(c)
        for e, (u, v) in self.endpoints.items():
            if u == drop or v == drop:
                self.inv[e] = words.concat(
                    c if u == drop else (), self.inv[e], c_inv if v == drop else ()
                )
        self.endpoints = {
            e: (keep if u == drop else u, keep if v == drop else v)
            for e, (u, v) in self.endpoints.items()
        }
        self.vertex_image = {
            v: (keep if w == drop else w) for v, w in self.vertex_image.items() if v != drop
        }

    # -- surgery moves -----------------------------------------------------

    def subdivide(self, e: int, cuts: Sequence[int]) -> List[int]:
        """Split edge e at the given positions of its image path; new edge ids.

        The pieces and the new vertices take ids past the largest live ones,
        e included.  The first piece carries e's inverse-marking word, the
        others none."""
        first_edge, first_vertex = max(self.endpoints) + 1, max(self.vertex_image) + 1
        image, (u, v), word = self.drop_edge(e)
        parts = list(range(first_edge, first_edge + len(cuts) + 1))
        mids = list(range(first_vertex, first_vertex + len(cuts)))
        chain = [u] + mids + [v]
        for i, p in enumerate(parts):
            self.endpoints[p] = (chain[i], chain[i + 1])
            self.inv[p] = word if i == 0 else ()
        table = self.rewrite_all({e: parts})
        new_image = words.apply_table(table, image)
        offsets = [len(words.apply_table(table, image[:c])) for c in cuts]
        bounds = [0] + offsets + [len(new_image)]
        for i, p in enumerate(parts):
            self.images[p] = new_image[bounds[i] : bounds[i + 1]]
        for off, mid in zip(offsets, mids):
            self.vertex_image[mid] = self.term(new_image[off - 1])
        return parts

    def identify(self, keep_d: int, drop_d: int) -> None:
        """Identify two directions at one vertex whose whole images agree;
        `fold` has subdivided them equal and checked that they end at
        distinct vertices and that drop_d does not end at the basepoint."""
        w_keep, w_drop = self.term(keep_d), self.term(drop_d)
        e_drop = abs(drop_d)
        rep = (keep_d,) if drop_d > 0 else (-keep_d,)
        c = words.concat(self.inv_of(-keep_d), self.inv_of(drop_d))
        self.drop_edge(e_drop)
        self.rewrite_all({e_drop: rep})
        self._merge_vertex(w_drop, w_keep, c)

    def collapse_edges(self, edge_set: Sequence[int]) -> None:
        """Contract a forest of edges (images of survivors lose those letters)."""
        for e in sorted(edge_set):
            u, v = self.endpoints[e]
            keep, drop, d = u, v, e
            if v == self.basepoint or (u != self.basepoint and v < u):
                keep, drop, d = v, u, -e
            c = self.inv_of(d)
            self.drop_edge(e)
            self.rewrite_all({e: ()})
            self._merge_vertex(drop, keep, c)

    def _rebase_off_hair(self) -> None:
        """Move a valence-1 basepoint to its attachment, conjugating the
        marking, and collapse the hair.

        Every reduced loop based at a leaf starts along the hair and returns
        along it, so stripping the first and last letters rebases the loop.
        The inverse marking stays: every loop's word is conjugated by the
        hair's word, and the marking check allows one common conjugator.
        The leaf has no other edge, so collapsing the hair changes no word.
        """
        (h,) = self.incidence()[self.basepoint]
        for i, loop in enumerate(self.dom_marking):
            if not (loop and loop[0] == h and loop[-1] == -h):
                raise InvalidMapError("marking loop is not based at the leaf")
            self.dom_marking[i] = loop[1:-1]
        self.basepoint = self.term(h)
        self.collapse_edges([abs(h)])

    def _slide_images_off(self, v: int, along: int) -> None:
        """Homotope the map so no vertex image lands on v, sliding along the
        direction `along` (which starts at v); image paths of edges incident
        to the affected domain vertices are extended accordingly."""
        target = self.term(along)
        incidence = self.incidence()
        for u in sorted(u for u, w in self.vertex_image.items() if w == v):
            self.vertex_image[u] = target
            for d in incidence[u]:
                if d > 0:
                    self.images[d] = words.concat((-along,), self.images[d])
                else:
                    self.images[-d] = words.concat(self.images[-d], (along,))

    def unsubdivide_pass(self) -> bool:
        """Merge the chain at one valence-2 vertex other than the basepoint;
        True if merged.  Vertex images blocking the merge are slid off first,
        along whichever of the two directions gives the smaller stretch."""
        for v, dirs in sorted(self.incidence().items()):
            if v == self.basepoint or len(dirs) != 2:
                continue
            # Two distinct edges: a connected graph of rank >= 2 has no isolated circle.
            c1, c2 = dirs
            if v in self.vertex_image.values():
                trials = []
                for idx, along in enumerate((c1, c2)):
                    trial = self.copy()
                    trial._slide_images_off(v, along)
                    trial._merge_valence_two(v, c1, c2)
                    rho = spectral_radius(_crossing_counts(trial.graph(), trial.images))
                    trials.append((rho, idx, trial))
                self.__dict__.update(min(trials)[2].__dict__)
            else:
                self._merge_valence_two(v, c1, c2)
            return True
        return False

    def _merge_valence_two(self, v: int, c1: int, c2: int) -> None:
        """Replace the two-edge chain through v by a single edge E, by the
        substitution c1 -> (), c2 -> E.  v is neither the basepoint nor a
        vertex image, so every path crosses it as -c1 c2 or -c2 c1, which
        become E and -E."""
        if v == self.basepoint or v in self.vertex_image.values():
            raise InvalidMapError("valence-two vertex is the basepoint or a vertex image")
        E = max(self.endpoints) + 1
        new_image = self.image_of(-c1) + self.image_of(c2)
        new_inv = words.concat(self.inv_of(-c1), self.inv_of(c2))
        u, w = self.term(c1), self.term(c2)
        self.drop_edge(abs(c1))
        self.drop_edge(abs(c2))
        table = self.rewrite_all({abs(c1): (), abs(c2): (E if c2 > 0 else -E,)})
        self.endpoints[E] = (u, w)
        self.inv[E] = new_inv
        self.images[E] = words.apply_table(table, new_image)
        self.vertex_image.pop(v, None)

    def to_graph_map(self, g: Graph, metric: Metric) -> GraphMap:
        """The state as a GraphMap on its graph g at the given metric, with
        every point and marking check.

        The domain checks that `inv` inverts its marking up to one
        conjugation, which with rank(G) = n proves the marking a homotopy
        equivalence (free groups are Hopfian); the codomain's inverse
        marking is `inv` followed by the twist's inverse, a substitution.
        """
        domain = OuterSpacePoint(
            g,
            metric,
            [EdgePath(tuple(p)) for p in self.dom_marking],
            self.basepoint,
            inverse_marking=self.inv,
        )
        return GraphMap(
            domain,
            act(domain, self.twist),
            dict(self.vertex_image),
            {e: EdgePath(tuple(p)) for e, p in self.images.items()},
        )

    def own_basis_images(self) -> Tuple[Word, ...]:
        """The state's map in its graph's own basis, the loops over the
        non-tree edges of graph_point's BFS tree; a loop's image, based at the
        basepoint's image, reads as its conjugate by the tree path back.  It
        is conjugate to the twist in Out(F_n) through the marking."""
        x = graph_point(self.graph(), uniform_metric(self.endpoints))
        table = words.letter_table({e: x.inverse_marking_word(p) for e, p in self.images.items()})
        return tuple(words.apply_table(table, p.edges) for p in x.marking)


# -- fold and normalize ---------------------------------------------------------


def _common_prefix_len(a: Sequence[int], b: Sequence[int]) -> int:
    n = 0
    for x, y in zip(a, b):
        if x != y:
            break
        n += 1
    return n


def fold(st: _MapState, t: Tuple[int, int]) -> None:
    """Fold a one-step illegal turn in place: subdivide so the shared image
    prefix is an initial edge on both sides, then identify the two initial edges."""
    d1, d2 = t
    for d in (d1, d2):
        if abs(d) not in st.endpoints:
            raise ValueError(f"direction {d} is not in the graph")
    if d1 == d2:
        raise ValueError("cannot fold a degenerate turn")
    if st.init(d1) != st.init(d2):
        raise ValueError("turn directions start at different vertices")
    if st.derivative(d1) != st.derivative(d2):
        raise ValueError("turn is legal at one step; nothing to fold")
    A, B = st.image_of(d1), st.image_of(d2)
    if abs(d1) == abs(d2):
        # Loop edge folded onto itself: reducedness forces the shared prefix
        # and the mirrored suffix to be disjoint thirds, so cut twice.  Equal
        # derivatives force a reduced image of 3 or more letters, so L >= 1.
        k = len(A)
        L = min(_common_prefix_len(A, B), (k - 1) // 2)
        parts = st.subdivide(abs(d1), [L, k - L])
        f1, f2 = parts[0], -parts[2]
    else:
        L = _common_prefix_len(A, B)
        if L < len(A):
            cut = L if d1 > 0 else len(A) - L
            parts = st.subdivide(abs(d1), [cut])
            f1 = parts[0] if d1 > 0 else -parts[1]
        else:
            f1 = d1
        L2 = len(st.image_of(f1))
        lenB = len(st.image_of(d2))
        if L2 < lenB:
            cut = L2 if d2 > 0 else lenB - L2
            parts = st.subdivide(abs(d2), [cut])
            f2 = parts[0] if d2 > 0 else -parts[1]
        else:
            f2 = d2
    if st.term(f1) == st.term(f2):
        raise InvalidMapError(
            "folding these directions would identify parallel edges and drop the rank"
        )
    if st.term(f2) == st.basepoint:
        f1, f2 = f2, f1
    st.identify(f1, f2)
    # identify lowers only the fold vertex's valence, 3 or more after
    # normalize unless it is the basepoint, so only the basepoint can be a leaf.
    if len(st.incidence()[st.basepoint]) == 1:
        st._rebase_off_hair()
    st.finish()


def normalize(st: _MapState) -> None:
    """Collapse point-image forests and unsubdivide chains (in place)."""
    while True:
        degenerate = sorted(e for e, p in st.images.items() if not p)
        if degenerate:
            if not is_forest(st.graph(), degenerate):
                raise InvalidMapError(
                    "point-image edges contain a cycle; collapsing would drop the rank"
                )
            st.collapse_edges(degenerate)
            continue
        # No hairs: only a fold leaves one, at the basepoint, and `fold`
        # collapses it; collapsing a forest and merging at a valence-2
        # vertex keep every valence at 2 or more.
        if st.unsubdivide_pass():
            continue
        break
    st.finish()


# -- certificates ----------------------------------------------------------------


@dataclass(frozen=True)
class TrainTrackCertificate:
    graph_map: GraphMap
    structure: TrainTrackStructure
    lam: float
    trace: Tuple[str, ...]
    status: ClassVar[str] = "train_track"


@dataclass(frozen=True)
class ReductionCertificate:
    subset: FrozenSet[int]
    graph_map: GraphMap
    matrix: TransitionMatrix
    rho: float  # spectral_radius(matrix)
    trace: Tuple[str, ...]
    status: ClassVar[str] = "reducible"


@dataclass(frozen=True)
class FiniteOrderCertificate:
    order: int
    graph_map: GraphMap
    trace: Tuple[str, ...]
    status: ClassVar[str] = "finite_order"


@dataclass(frozen=True)
class NonTerminationCertificate:
    reason: str
    trace: Tuple[str, ...]
    status: ClassVar[str] = "max_iters"


Certificate = Union[
    TrainTrackCertificate,
    ReductionCertificate,
    FiniteOrderCertificate,
    NonTerminationCertificate,
]


# -- the search loop --------------------------------------------------------------


def _abelianization(phi: Automorphism) -> List[List[int]]:
    """Integer matrix of phi on homology: entry [i][j] is the exponent sum of
    generator i+1 in the image of generator j+1."""
    n = phi.rank
    mat = [[0] * n for _ in range(n)]
    for j, w in enumerate(phi.images):
        for x in w:
            mat[abs(x) - 1][j] += 1 if x > 0 else -1
    return mat


def finite_order_check(phi: Automorphism) -> Optional[int]:
    """Order of the abelianization A of phi if it is finite, else None.

    It is the library's one order computation: when phi has finite order in
    Out(F_n), that order is A's (Baumslag and Taylor, 1968), so every
    finite-order exit of the fold loop reads it here, once per run.

    The kernel of GL(n, Z) -> GL(n, Z/3) is torsion-free (Minkowski), so if
    A has finite order, the first k with A^k = I mod 3 is that order.  A
    matrix of finite order is diagonalizable with root-of-unity eigenvalues,
    so every power A^k has |trace| <= n, and trace n only if A^k = I.  Each
    round stops at a power with |trace| > n, at the first power that is I
    mod 3 (the order, if that power is I), or at one with trace n that is
    not I.  The loop always ends, since A mod 3 lies in the finite group
    GL(n, Z/3); an A of spectral radius 1 but infinite order (one with a
    unipotent part, like a -> ab, b -> b) ends once k is a multiple of its
    eigenvalues' orders.
    """
    A = _abelianization(phi)
    n = len(A)
    identity = [[int(i == j) for j in range(n)] for i in range(n)]
    power, k = A, 1
    while True:
        trace = sum(power[i][i] for i in range(n))
        if abs(trace) > n:
            return None
        if (trace - n) % 3 == 0 and [[x % 3 for x in row] for row in power] == identity:
            return k if power == identity else None
        if trace == n:
            return None
        power, k = _matmul(A, power), k + 1


def _matmul(A: List[List[int]], B: List[List[int]]) -> List[List[int]]:
    cols = list(zip(*B))
    return [[sum(map(operator.mul, row, col)) for col in cols] for row in A]


def _descend_to_one_step(deriv: Mapping[int, int], d1: int, d2: int) -> Tuple[int, int]:
    """From a pair in one iterated gate down to a pair with equal derivatives."""
    a, b = d1, d2
    for _ in range(len(deriv)):
        if deriv[a] == deriv[b]:
            return turn(a, b)
        a, b = deriv[a], deriv[b]
    raise InvalidMapError(f"directions {d1},{d2} never merge under the derivative")


def _gate_potential(s: TrainTrackStructure, g: Graph) -> int:
    return sum(max(0, s.num_gates(v) - 2) for v in g.vertices)


def _round_line(rnd: int, edges: int, lam: float, potential, move: str) -> str:
    """One trace line of the fold loop; potential is an int or "-"."""
    return f"round={rnd} edges={edges} lambda={lam:.12g} potential={potential} move={move}"


def _finite_order_exit(st: _MapState, g: Graph, rnd: int, potential,
                      trace: List[str]) -> Optional[FiniteOrderCertificate]:
    """The loop's one finite-order certificate, at the exit state, if phi^d
    is inner, phi the state's twist, for the only candidate order
    d = finite_order_check(phi) (Baumslag–Taylor): if the d-th power of the
    state's short own-basis images is.  Past _ORDER_LETTER_BUDGET letters, a
    memory bound on powers that may grow like lambda^k, it gives None; the
    other exits still hold."""
    d = finite_order_check(st.twist)
    if d is None:
        return None
    base = power = st.own_basis_images()
    for _ in range(d - 1):
        if sum(map(len, power)) > _ORDER_LETTER_BUDGET:
            return None
        power = words.compose(base, power)
    if not words.is_conjugate_identity(power):
        return None
    trace.append(_round_line(rnd, g.num_edges, 1.0, potential, f"finite_order({d})"))
    return FiniteOrderCertificate(d, st.to_graph_map(g, uniform_metric(g.edge_ids)), tuple(trace))


def find_train_track(phi: Automorphism, max_iters: int = 10**4) -> Certificate:
    """Run the fold loop from the rose until a certificate appears.

    Outcomes: a train track certificate (PF metric realizing the stretch
    factor and a gate structure making every crossed turn legal), a
    reduction certificate (proper invariant non-forest edge class) or a
    finite-order certificate, both at the uniform metric, or a
    non-termination report carrying the round trace, at the iteration cap
    or at a repeated state, which proves a cycle (see the module docstring).

    Every finite-order certificate passes one test, _finite_order_exit, on
    the state, never on phi's rose images: a graph automorphism round must
    pass it, the reduction, repeat and iteration-cap exits try it first,
    and a train track has lambda > 1.  A bad move raises InvalidMapError.
    """
    if phi.rank < 2:
        raise ValueError("rank must be at least 2")
    trace: List[str] = []
    st = _MapState(phi)
    saved, saved_rnd = None, 0
    for rnd in range(max_iters):
        normalize(st)
        g = st.graph()
        M = _crossing_counts(g, st.images)
        deriv = {d: st.derivative(d) for d in g.directions()}
        s = gates_from_derivative(g, deriv)
        pot = _gate_potential(s, g)
        # Single-edge images make the map a graph automorphism, of finite
        # order, so it must pass the exit test.  Its permutation matrix is
        # reducible when it has several cycles, so this comes first.
        if all(len(p) == 1 for p in st.images.values()):
            if done := _finite_order_exit(st, g, rnd, pot, trace):
                return done
            raise InvalidMapError("graph automorphism fails the finite-order test")
        cls = closed_class(M)
        if cls is not None:
            move = "collapse_forest" if is_forest(g, cls) else "reduction"
            if move == "reduction" and (done := _finite_order_exit(st, g, rnd, pot, trace)):
                return done
            rho = spectral_radius(M)
            trace.append(_round_line(rnd, g.num_edges, rho, pot, f"{move}({sorted(cls)})"))
            if move == "reduction":
                return ReductionCertificate(
                    subset=cls, graph_map=st.to_graph_map(g, uniform_metric(g.edge_ids)),
                    matrix=M, rho=rho, trace=tuple(trace))
            st.collapse_edges(sorted(cls))
            st.finish()
            continue
        _, ell = pf_eigen(M)
        # lambda is measured at the PF vector v as sum(M^T v) / sum(v), a
        # weighted mean of the edge slopes (M^T v)_j / v_j, so it lies in
        # growth_bracket's exact [lo, hi] at v up to the rounding of one sum.
        v = np.array(ell)
        lam = float((np.array(M.rows, dtype=float).T @ v).sum() / v.sum())
        bad = _first_illegal_image_turn(st, s)
        if bad is None:
            # Legal edge images make a train track map: every vertex has two
            # gates.  M is irreducible and not a permutation, so lambda > 1:
            # the spectral radius of an irreducible nonnegative matrix lies
            # between its least and greatest column sums, strictly unless they
            # are equal, and M's column sums are the image lengths, at least
            # 1 and not all 1.
            # Gates are the classes of directions that coincide eventually
            # under Df, so Df sends legal turns to legal turns, and the map
            # sends legal paths to legal paths.  So for each edge e some
            # iterate of some edge's image is a legal path that crosses e at
            # least 3 times; one of those crossings is interior, so a legal
            # turn sits at each end of e.
            trace.append(_round_line(rnd, g.num_edges, lam, pot, "train_track"))
            return TrainTrackCertificate(
                graph_map=st.to_graph_map(g, Metric(dict(zip(M.edge_ids, ell)))),
                structure=s,
                lam=lam,
                trace=tuple(trace),
            )
        # Brent's cycle test: one saved key, re-saved as the fold rounds double.
        key = st.key()
        if key == saved:
            if done := _finite_order_exit(st, g, rnd, pot, trace):
                return done
            trace.append(_round_line(rnd, g.num_edges, lam, pot, f"repeat({saved_rnd})"))
            return NonTerminationCertificate(
                f"state of round {saved_rnd} repeats at round {rnd} (period {rnd - saved_rnd})",
                tuple(trace))
        if rnd >= 2 * saved_rnd:
            saved, saved_rnd = key, rnd
        t = _descend_to_one_step(deriv, *bad)
        trace.append(_round_line(rnd, g.num_edges, lam, pot, f"fold({t[0]},{t[1]})"))
        fold(st, t)
    return (_finite_order_exit(st, st.graph(), max_iters, "-", trace)
            or NonTerminationCertificate(reason="iteration cap reached", trace=tuple(trace)))
